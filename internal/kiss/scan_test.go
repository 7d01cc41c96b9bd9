package kiss

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// A comment line far longer than the scanner's starting buffer still
// parses: the buffer grows on demand.
func TestParseLongCommentLine(t *testing.T) {
	long := "# " + strings.Repeat("x", 100<<10) + "\n"
	f, err := ParseString(long + lionKiss)
	if err != nil {
		t.Fatalf("100 KiB comment line: %v", err)
	}
	if len(f.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(f.Rows))
	}
	p, err := ParsePLAString(long + ".i 1\n.o 1\n1 1\n.e\n")
	if err != nil {
		t.Fatalf("PLA with a 100 KiB comment line: %v", err)
	}
	if len(p.Rows) != 1 {
		t.Fatalf("PLA rows = %d, want 1", len(p.Rows))
	}
}

// A line over the 1 MiB cap is an error, not a panic or a silent cut.
func TestParseLineOverCap(t *testing.T) {
	huge := "# " + strings.Repeat("x", 2<<20) + "\n"
	if _, err := ParseString(huge + lionKiss); err == nil {
		t.Fatal("KISS2 with a 2 MiB line parsed; want an error")
	}
	if _, err := ParsePLAString(huge + ".i 1\n.o 1\n1 1\n.e\n"); err == nil {
		t.Fatal("PLA with a 2 MiB line parsed; want an error")
	}
}

// Parsing a small machine allocates in proportion to its text, not the
// line cap: every novad request and every cold encode parses.
func TestParseAllocatesLittle(t *testing.T) {
	src, err := os.ReadFile("../../testdata/quick4.kiss2")
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(bytes.NewReader(src)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("parsing quick4.kiss2 allocates %d bytes per call, want < 64 KiB", got)
	}
}
