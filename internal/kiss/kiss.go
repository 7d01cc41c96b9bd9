// Package kiss implements the FSM model used throughout the reproduction,
// together with a reader and writer for the KISS2 state-transition-table
// format used by the MCNC benchmarks, and a minimal PLA container for the
// encoded two-level result.
//
// Beyond standard KISS2, the model supports symbolic (multiple-valued)
// proper input variables, as NOVA does: symbolic inputs are encoded jointly
// with the states.
package kiss

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Var is a symbolic (multiple-valued) variable with named values.
type Var struct {
	Name   string
	Values []string
}

// Index returns the index of value name in v, or -1 if absent.
func (v *Var) Index(name string) int {
	for i, s := range v.Values {
		if s == name {
			return i
		}
	}
	return -1
}

// Row is one symbolic implicant of the state-transition table.
type Row struct {
	// In is the binary proper-input pattern: one of '0', '1', '-' per input.
	In string
	// SymIn holds one value index per symbolic input variable; -1 means the
	// row applies to every value of that variable.
	SymIn []int
	// Present is the present-state index, or -1 for "any state".
	Present int
	// Next is the next-state index, or -1 when the next state is
	// unspecified (written '*' in KISS2 extensions).
	Next int
	// Out is the binary output pattern: one of '0', '1', '-' per output.
	Out string
	// SymOut holds one value index per symbolic output variable; -1 means
	// the row leaves that output unspecified.
	SymOut []int
}

// FSM is a finite state machine given as a state transition table. Proper
// inputs and outputs may be binary or symbolic (multiple-valued); NOVA
// encodes symbolic inputs jointly with the states, and symbolic outputs by
// output-covering analysis (the extension announced as future work in the
// paper's Section VII).
type FSM struct {
	Name    string
	NI      int // number of binary proper inputs
	NO      int // number of binary proper outputs
	SymIns  []Var
	SymOuts []Var
	States  []string
	Reset   int // reset state index, or -1
	Rows    []Row
	nameIdx map[string]int
}

// New returns an empty FSM with the given name and numbers of binary
// inputs and outputs.
func New(name string, ni, no int) *FSM {
	return &FSM{Name: name, NI: ni, NO: no, Reset: -1, nameIdx: map[string]int{}}
}

// NumStates returns the number of distinct states.
func (f *FSM) NumStates() int { return len(f.States) }

// NumTerms returns the number of rows (symbolic implicants).
func (f *FSM) NumTerms() int { return len(f.Rows) }

// State returns the index of the named state, adding it if new.
func (f *FSM) State(name string) int {
	if f.nameIdx == nil {
		f.nameIdx = map[string]int{}
		for i, s := range f.States {
			f.nameIdx[s] = i
		}
	}
	if i, ok := f.nameIdx[name]; ok {
		return i
	}
	i := len(f.States)
	f.States = append(f.States, name)
	f.nameIdx[name] = i
	return i
}

// StateIndex returns the index of the named state, or -1 if absent.
func (f *FSM) StateIndex(name string) int {
	if f.nameIdx == nil {
		f.nameIdx = map[string]int{}
		for i, s := range f.States {
			f.nameIdx[s] = i
		}
	}
	if i, ok := f.nameIdx[name]; ok {
		return i
	}
	return -1
}

// AddSymbolicInput declares a symbolic input variable and returns its index.
func (f *FSM) AddSymbolicInput(name string, values ...string) int {
	f.SymIns = append(f.SymIns, Var{Name: name, Values: append([]string(nil), values...)})
	return len(f.SymIns) - 1
}

// AddSymbolicOutput declares a symbolic output variable and returns its
// index. Rows of an FSM with symbolic outputs are added with AddRowSym.
func (f *FSM) AddSymbolicOutput(name string, values ...string) int {
	f.SymOuts = append(f.SymOuts, Var{Name: name, Values: append([]string(nil), values...)})
	return len(f.SymOuts) - 1
}

// AddRow appends a transition. in and out use the characters 0/1/-; present
// and next are state names (next may be "*" for unspecified). symIn gives
// one value name per symbolic input ("-" for any); it may be nil when the
// FSM has no symbolic inputs. FSMs with symbolic outputs use AddRowSym.
func (f *FSM) AddRow(in string, present, next, out string, symIn ...string) error {
	if len(f.SymOuts) != 0 {
		return fmt.Errorf("kiss: FSM has symbolic outputs; use AddRowSym")
	}
	return f.AddRowSym(in, symIn, present, next, out, nil)
}

// AddRowSym appends a transition of a machine with symbolic inputs and/or
// outputs: symIn gives one value name per symbolic input ("-" for any),
// symOut one value name per symbolic output ("-" for unspecified).
func (f *FSM) AddRowSym(in string, symIn []string, present, next, out string, symOut []string) error {
	if len(in) != f.NI {
		return fmt.Errorf("kiss: row input %q has %d fields, FSM has %d inputs", in, len(in), f.NI)
	}
	if len(out) != f.NO {
		return fmt.Errorf("kiss: row output %q has %d fields, FSM has %d outputs", out, len(out), f.NO)
	}
	if len(symIn) != len(f.SymIns) {
		return fmt.Errorf("kiss: row has %d symbolic inputs, FSM has %d", len(symIn), len(f.SymIns))
	}
	if len(symOut) != len(f.SymOuts) {
		return fmt.Errorf("kiss: row has %d symbolic outputs, FSM has %d", len(symOut), len(f.SymOuts))
	}
	for _, c := range in {
		if c != '0' && c != '1' && c != '-' {
			return fmt.Errorf("kiss: invalid input character %q", c)
		}
	}
	for _, c := range out {
		if c != '0' && c != '1' && c != '-' {
			return fmt.Errorf("kiss: invalid output character %q", c)
		}
	}
	r := Row{In: in, Out: out}
	for i, v := range symIn {
		if v == "-" || v == "*" {
			r.SymIn = append(r.SymIn, -1)
			continue
		}
		idx := f.SymIns[i].Index(v)
		if idx < 0 {
			return fmt.Errorf("kiss: unknown value %q of symbolic input %s", v, f.SymIns[i].Name)
		}
		r.SymIn = append(r.SymIn, idx)
	}
	for i, v := range symOut {
		if v == "-" || v == "*" {
			r.SymOut = append(r.SymOut, -1)
			continue
		}
		idx := f.SymOuts[i].Index(v)
		if idx < 0 {
			return fmt.Errorf("kiss: unknown value %q of symbolic output %s", v, f.SymOuts[i].Name)
		}
		r.SymOut = append(r.SymOut, idx)
	}
	if present == "-" || present == "*" {
		r.Present = -1
	} else {
		r.Present = f.State(present)
	}
	if next == "*" {
		r.Next = -1
	} else {
		r.Next = f.State(next)
	}
	f.Rows = append(f.Rows, r)
	return nil
}

// MustAddRow is AddRow panicking on error, for table literals in tests and
// generators.
func (f *FSM) MustAddRow(in, present, next, out string, symIn ...string) {
	if err := f.AddRow(in, present, next, out, symIn...); err != nil {
		panic(err)
	}
}

// MustAddRowSym is AddRowSym panicking on error.
func (f *FSM) MustAddRowSym(in string, symIn []string, present, next, out string, symOut []string) {
	if err := f.AddRowSym(in, symIn, present, next, out, symOut); err != nil {
		panic(err)
	}
}

// SetReset sets the reset state by name (adding it if new).
func (f *FSM) SetReset(name string) { f.Reset = f.State(name) }

// Parse reads a KISS2 state transition table.
func Parse(r io.Reader) (*FSM, error) {
	f := New("", 0, 0)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows on demand up to the 1 MiB line cap
	line := 0
	declaredP := -1
	var resetName string
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if strings.HasPrefix(fields[0], ".") {
			switch fields[0] {
			case ".i", ".o", ".s", ".p":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss: line %d: %s wants one argument", line, fields[0])
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, fmt.Errorf("kiss: line %d: %v", line, err)
				}
				switch fields[0] {
				case ".i":
					f.NI = n
				case ".o":
					f.NO = n
				case ".s":
					// advisory; checked at the end
				case ".p":
					declaredP = n
				}
			case ".r":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss: line %d: .r wants one argument", line)
				}
				resetName = fields[1]
			case ".e", ".end":
				// terminator
			case ".symin", ".symout":
				// Extension: declare a symbolic input/output variable with
				// its value names. Rows then carry one extra field per
				// symbolic variable (inputs after the binary input field,
				// outputs after the binary output field).
				if len(fields) < 3 {
					return nil, fmt.Errorf("kiss: line %d: %s wants a name and at least one value", line, fields[0])
				}
				if fields[0] == ".symin" {
					f.AddSymbolicInput(fields[1], fields[2:]...)
				} else {
					f.AddSymbolicOutput(fields[1], fields[2:]...)
				}
			case ".ilb", ".ob", ".latch", ".type":
				// tolerated extensions; ignored
			default:
				return nil, fmt.Errorf("kiss: line %d: unknown directive %s", line, fields[0])
			}
			continue
		}
		want := 4 + len(f.SymIns) + len(f.SymOuts)
		if len(fields) != want {
			return nil, fmt.Errorf("kiss: line %d: want %d fields, got %d", line, want, len(fields))
		}
		nsi := len(f.SymIns)
		symIn := fields[1 : 1+nsi]
		present, next := fields[1+nsi], fields[2+nsi]
		out := fields[3+nsi]
		symOut := fields[4+nsi:]
		in := fields[0]
		if f.NI == 0 && in == "-" {
			in = ""
		}
		if err := f.AddRowSym(in, symIn, present, next, out, symOut); err != nil {
			return nil, fmt.Errorf("kiss: line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if resetName != "" {
		if f.StateIndex(resetName) < 0 {
			return nil, fmt.Errorf("kiss: reset state %q not mentioned in any row", resetName)
		}
		f.Reset = f.StateIndex(resetName)
	}
	if declaredP >= 0 && declaredP != len(f.Rows) {
		return nil, fmt.Errorf("kiss: .p declares %d rows, table has %d", declaredP, len(f.Rows))
	}
	if len(f.Rows) == 0 {
		return nil, fmt.Errorf("kiss: empty state table")
	}
	return f, nil
}

// ParseString parses a KISS2 table held in a string.
func ParseString(s string) (*FSM, error) { return Parse(strings.NewReader(s)) }

// Write emits the FSM as KISS2. Symbolic inputs, if any, are emitted as
// extra columns after the binary input field (a documented extension).
func (f *FSM) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n.p %d\n.s %d\n", f.NI, f.NO, len(f.Rows), len(f.States))
	for _, v := range f.SymIns {
		fmt.Fprintf(bw, ".symin %s %s", v.Name, strings.Join(v.Values, " "))
		fmt.Fprintln(bw)
	}
	for _, v := range f.SymOuts {
		fmt.Fprintf(bw, ".symout %s %s", v.Name, strings.Join(v.Values, " "))
		fmt.Fprintln(bw)
	}
	if f.Reset >= 0 {
		fmt.Fprintf(bw, ".r %s\n", f.States[f.Reset])
	}
	for _, r := range f.Rows {
		in := r.In
		if f.NI == 0 {
			in = "-"
		}
		fmt.Fprintf(bw, "%s", in)
		for i, v := range r.SymIn {
			if v < 0 {
				fmt.Fprintf(bw, " -")
			} else {
				fmt.Fprintf(bw, " %s", f.SymIns[i].Values[v])
			}
		}
		ps := "*"
		if r.Present >= 0 {
			ps = f.States[r.Present]
		}
		ns := "*"
		if r.Next >= 0 {
			ns = f.States[r.Next]
		}
		fmt.Fprintf(bw, " %s %s %s", ps, ns, r.Out)
		for i, v := range r.SymOut {
			if v < 0 {
				fmt.Fprintf(bw, " -")
			} else {
				fmt.Fprintf(bw, " %s", f.SymOuts[i].Values[v])
			}
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// String renders the FSM as KISS2 text.
func (f *FSM) String() string {
	var b strings.Builder
	_ = f.Write(&b)
	return b.String()
}

// Stats summarizes an FSM for the benchmark tables.
type Stats struct {
	Name    string
	Inputs  int // binary inputs
	SymIns  int // symbolic input variables
	Outputs int
	SymOuts int // symbolic output variables
	States  int
	Terms   int
}

// Stats returns the benchmark statistics of the FSM.
func (f *FSM) Stats() Stats {
	return Stats{
		Name:    f.Name,
		Inputs:  f.NI,
		SymIns:  len(f.SymIns),
		Outputs: f.NO,
		SymOuts: len(f.SymOuts),
		States:  len(f.States),
		Terms:   len(f.Rows),
	}
}

// NextStateUsage returns, per state, how many rows have it as next state.
func (f *FSM) NextStateUsage() []int {
	use := make([]int, len(f.States))
	for _, r := range f.Rows {
		if r.Next >= 0 {
			use[r.Next]++
		}
	}
	return use
}

// SortedStateNames returns the state names in index order (a copy).
func (f *FSM) SortedStateNames() []string {
	out := append([]string(nil), f.States...)
	return out
}

// Validate performs structural sanity checks: state indexes in range,
// row field widths consistent.
func (f *FSM) Validate() error {
	for i, r := range f.Rows {
		if len(r.In) != f.NI {
			return fmt.Errorf("kiss: row %d: input width %d != %d", i, len(r.In), f.NI)
		}
		if len(r.Out) != f.NO {
			return fmt.Errorf("kiss: row %d: output width %d != %d", i, len(r.Out), f.NO)
		}
		if r.Present < -1 || r.Present >= len(f.States) {
			return fmt.Errorf("kiss: row %d: present state %d out of range", i, r.Present)
		}
		if r.Next < -1 || r.Next >= len(f.States) {
			return fmt.Errorf("kiss: row %d: next state %d out of range", i, r.Next)
		}
		if len(r.SymIn) != len(f.SymIns) {
			return fmt.Errorf("kiss: row %d: %d symbolic inputs, FSM has %d", i, len(r.SymIn), len(f.SymIns))
		}
		for j, v := range r.SymIn {
			if v < -1 || v >= len(f.SymIns[j].Values) {
				return fmt.Errorf("kiss: row %d: symbolic input %d value %d out of range", i, j, v)
			}
		}
		if len(r.SymOut) != len(f.SymOuts) {
			return fmt.Errorf("kiss: row %d: %d symbolic outputs, FSM has %d", i, len(r.SymOut), len(f.SymOuts))
		}
		for j, v := range r.SymOut {
			if v < -1 || v >= len(f.SymOuts[j].Values) {
				return fmt.Errorf("kiss: row %d: symbolic output %d value %d out of range", i, j, v)
			}
		}
	}
	return nil
}

// Deterministic reports whether no two rows with intersecting activation
// conditions (inputs, symbolic inputs and present state) disagree on next
// state or on a specified output bit. It returns a description of the first
// conflict found.
func (f *FSM) Deterministic() (bool, string) {
	inter := func(a, b Row) bool {
		for k := 0; k < f.NI; k++ {
			x, y := a.In[k], b.In[k]
			if x != '-' && y != '-' && x != y {
				return false
			}
		}
		for k := range a.SymIn {
			if a.SymIn[k] >= 0 && b.SymIn[k] >= 0 && a.SymIn[k] != b.SymIn[k] {
				return false
			}
		}
		if a.Present >= 0 && b.Present >= 0 && a.Present != b.Present {
			return false
		}
		return true
	}
	for i := 0; i < len(f.Rows); i++ {
		for j := i + 1; j < len(f.Rows); j++ {
			a, b := f.Rows[i], f.Rows[j]
			if !inter(a, b) {
				continue
			}
			if a.Next >= 0 && b.Next >= 0 && a.Next != b.Next {
				return false, fmt.Sprintf("rows %d and %d overlap with different next states", i, j)
			}
			for k := 0; k < f.NO; k++ {
				x, y := a.Out[k], b.Out[k]
				if x != '-' && y != '-' && x != y {
					return false, fmt.Sprintf("rows %d and %d overlap with conflicting output %d", i, j, k)
				}
			}
			for k := range a.SymOut {
				if a.SymOut[k] >= 0 && b.SymOut[k] >= 0 && a.SymOut[k] != b.SymOut[k] {
					return false, fmt.Sprintf("rows %d and %d overlap with conflicting symbolic output %d", i, j, k)
				}
			}
		}
	}
	return true, ""
}

// ReachableStates returns the states reachable from the reset state (or
// state 0 when no reset is declared) following rows as edges.
func (f *FSM) ReachableStates() []int {
	start := f.Reset
	if start < 0 {
		start = 0
	}
	seen := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, r := range f.Rows {
			if (r.Present == s || r.Present < 0) && r.Next >= 0 && !seen[r.Next] {
				seen[r.Next] = true
				queue = append(queue, r.Next)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
