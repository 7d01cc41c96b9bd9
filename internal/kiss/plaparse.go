package kiss

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePLA reads a two-level cover in espresso's .pla format. Supported
// directives: .i, .o, .p (advisory), .ilb/.ob (ignored), .type (fd and f
// accepted), .e/.end. Output characters: 1 (on), 0 and - ('not driven');
// 4 (don't-care) is accepted and treated as '-'.
func ParsePLA(r io.Reader) (*PLA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows on demand up to the 1 MiB line cap
	p := &PLA{NI: -1, NO: -1}
	declaredP := -1
	line := 0
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
			case ".i", ".o", ".p":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla: line %d: %s wants one argument", line, fields[0])
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, fmt.Errorf("pla: line %d: %v", line, err)
				}
				switch fields[0] {
				case ".i":
					p.NI = n
				case ".o":
					p.NO = n
				default:
					declaredP = n
				}
			case ".type":
				if len(fields) == 2 && fields[1] != "fd" && fields[1] != "f" && fields[1] != "fr" {
					return nil, fmt.Errorf("pla: line %d: unsupported type %s", line, fields[1])
				}
			case ".ilb", ".ob", ".lb":
				// names; ignored
			case ".e", ".end":
				// terminator
			default:
				return nil, fmt.Errorf("pla: line %d: unknown directive %s", line, fields[0])
			}
			continue
		}
		if p.NI < 0 || p.NO < 0 {
			return nil, fmt.Errorf("pla: line %d: product term before .i/.o", line)
		}
		// Input and output fields may be space-separated or fused.
		var in, out string
		switch len(fields) {
		case 2:
			in, out = fields[0], fields[1]
		case 1:
			if len(fields[0]) != p.NI+p.NO {
				return nil, fmt.Errorf("pla: line %d: row width %d != %d", line, len(fields[0]), p.NI+p.NO)
			}
			in, out = fields[0][:p.NI], fields[0][p.NI:]
		default:
			in = strings.Join(fields[:len(fields)-1], "")
			out = fields[len(fields)-1]
		}
		for _, c := range in {
			if c != '0' && c != '1' && c != '-' {
				return nil, fmt.Errorf("pla: line %d: bad input char %q", line, c)
			}
		}
		outB := []byte(out)
		for i, c := range outB {
			switch c {
			case '0', '1', '-':
			case '4', '2': // espresso dc markers
				outB[i] = '-'
			default:
				return nil, fmt.Errorf("pla: line %d: bad output char %q", line, c)
			}
		}
		if err := p.AddRow(in, string(outB)); err != nil {
			return nil, fmt.Errorf("pla: line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.NI < 0 || p.NO < 0 {
		return nil, fmt.Errorf("pla: missing .i/.o header")
	}
	if declaredP >= 0 && declaredP != len(p.Rows) {
		return nil, fmt.Errorf("pla: .p declares %d rows, file has %d", declaredP, len(p.Rows))
	}
	return p, nil
}

// ParsePLAString parses a .pla held in a string.
func ParsePLAString(s string) (*PLA, error) { return ParsePLA(strings.NewReader(s)) }

// Split separates the PLA into on-set and don't-care rows per espresso's
// type-fd semantics: '1' entries are on-set, '-' entries don't-care; each
// row may contribute to both covers.
func (p *PLA) Split() (on, dc *PLA) {
	on = &PLA{NI: p.NI, NO: p.NO}
	dc = &PLA{NI: p.NI, NO: p.NO}
	for _, r := range p.Rows {
		hasOn, hasDC := false, false
		onOut := make([]byte, p.NO)
		dcOut := make([]byte, p.NO)
		for i := 0; i < p.NO; i++ {
			onOut[i], dcOut[i] = '-', '-'
			switch r.Out[i] {
			case '1':
				onOut[i] = '1'
				hasOn = true
			case '-':
				dcOut[i] = '1'
				hasDC = true
			}
		}
		if hasOn {
			_ = on.AddRow(r.In, string(onOut))
		}
		if hasDC {
			_ = dc.AddRow(r.In, string(dcOut))
		}
	}
	return on, dc
}
