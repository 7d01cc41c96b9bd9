package encode

// SearchMemoReset lets the external test package start a benchmark
// iteration with an empty search memo.
var SearchMemoReset = searchMemoReset
