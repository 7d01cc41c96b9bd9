package bench

import "nova/internal/kiss"

// Examples builds fresh copies of the machines of the examples/ programs
// (the tables are pinned here so the regression corpora do not depend on
// running main packages): traffic, bus with a symbolic input, quickstart,
// and microseq with a symbolic output.
func Examples() []*kiss.FSM {
	traffic := kiss.New("traffic", 3, 7)
	traffic.MustAddRow("0--", "hgreen", "hgreen", "1000010")
	traffic.MustAddRow("-0-", "hgreen", "hgreen", "1000010")
	traffic.MustAddRow("11-", "hgreen", "hyellow", "0100011")
	traffic.MustAddRow("--0", "hyellow", "hyellow", "0100010")
	traffic.MustAddRow("--1", "hyellow", "fgreen", "0011001")
	traffic.MustAddRow("1-0", "fgreen", "fgreen", "0011000")
	traffic.MustAddRow("0--", "fgreen", "fyellow", "0010101")
	traffic.MustAddRow("--1", "fgreen", "fyellow", "0010101")
	traffic.MustAddRow("1-1", "fgreen", "fyellow", "0010101")
	traffic.MustAddRow("--0", "fyellow", "fyellow", "0010100")
	traffic.MustAddRow("--1", "fyellow", "hgreen", "1000011")
	traffic.SetReset("hgreen")

	bus := kiss.New("bus", 1, 3)
	bus.AddSymbolicInput("cmd", "read", "write", "burst", "idlecmd")
	bus.MustAddRow("-", "idle", "raddr", "000", "read")
	bus.MustAddRow("-", "idle", "waddr", "000", "write")
	bus.MustAddRow("-", "idle", "raddr", "000", "burst")
	bus.MustAddRow("-", "idle", "idle", "000", "idlecmd")
	bus.MustAddRow("0", "raddr", "raddr", "010", "-")
	bus.MustAddRow("1", "raddr", "rdata", "011", "-")
	bus.MustAddRow("0", "waddr", "waddr", "010", "-")
	bus.MustAddRow("1", "waddr", "wdata", "010", "-")
	bus.MustAddRow("0", "rdata", "rdata", "011", "-")
	bus.MustAddRow("1", "rdata", "idle", "111", "-")
	bus.MustAddRow("0", "wdata", "wdata", "010", "-")
	bus.MustAddRow("1", "wdata", "idle", "110", "-")
	bus.SetReset("idle")

	quick, err := kiss.ParseString(`
.i 2
.o 2
.s 5
.r idle
0- idle  idle  00
1- idle  load  01
-0 load  run   01
-1 load  idle  00
00 run   run   10
01 run   done  10
1- run   idle  00
-- done  flush 11
0- flush idle  00
1- flush load  01
.e
`)
	if err != nil {
		panic("bench: quickstart table: " + err.Error())
	}
	quick.Name = "quickstart"

	micro := kiss.New("microseq", 2, 1)
	micro.AddSymbolicOutput("uop", "unop", "uload", "ustore", "ualu", "ubranch")
	madd := func(in, ps, ns, out, op string) {
		micro.MustAddRowSym(in, nil, ps, ns, out, []string{op})
	}
	madd("00", "ifetch", "ifetch", "0", "unop")
	madd("01", "ifetch", "opread", "0", "uload")
	madd("1-", "ifetch", "branch", "0", "ubranch")
	madd("-0", "opread", "execute", "0", "ualu")
	madd("-1", "opread", "wback", "0", "ualu")
	madd("0-", "execute", "wback", "1", "ualu")
	madd("1-", "execute", "execute", "0", "ualu")
	madd("--", "wback", "ifetch", "1", "ustore")
	madd("-1", "branch", "ifetch", "0", "unop")
	madd("-0", "branch", "branch", "0", "ubranch")
	micro.SetReset("ifetch")

	return []*kiss.FSM{traffic, bus, quick, micro}
}
