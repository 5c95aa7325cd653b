package smmem_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"kset/internal/smmem"
	"kset/internal/types"
)

// text is the text a trace prints for the register r names, as Reg's
// documentation states it: Name and the decimal Index when Name ends in '/',
// Name otherwise.
func text(r smmem.Reg) string {
	if strings.HasSuffix(r.Name, "/") {
		return r.Name + strconv.Itoa(r.Index)
	}
	return r.Name
}

// registerReads runs p1 writing 7 to its register written (whose Owner is
// p1) and p2 reading read once before the write and once after, then
// written; it returns p2's reads as the trace shows them, "text" for a miss
// and "text=value" for a hit.
func registerReads(t *testing.T, written, readReg smmem.Reg) string {
	t.Helper()
	var got []string
	cfg := smmem.Config{
		N: 2, T: 1, K: 2,
		Inputs: []types.Value{7, 8},
		NewProtocol: func(id types.ProcessID) smmem.Protocol {
			return runFunc(func(api smmem.API) {
				x := smmem.Reg{Name: "x"}
				if id == 0 {
					reads(api, x, 1, func() {
						api.WriteValue(written.Name, written.Index, 7)
						after(api, func() { api.Decide(7) })
					})
					return
				}
				reads(api, readReg, 1, func() {
					reads(api, x, 1, func() {
						reads(api, readReg, 1, func() {
							reads(api, written, 1, func() { api.Decide(8) })
						})
					})
				})
			})
		},
		Scheduler: &smmem.RoundRobin{},
		Trace: func(ev smmem.TraceEvent) {
			if ev.Proc != 1 || ev.Type != smmem.EvRead || ev.Register == "x" {
				return
			}
			r := ev.Register
			if ev.Present {
				r += fmt.Sprint("=", ev.Payload.Value)
			}
			got = append(got, r)
		},
	}
	if _, err := smmem.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return strings.Join(got, " ")
}

// TestRegisterIdentity: a register is its Reg. Each Reg of the first table
// is written by p1 and read by p2, before and after the write: the read
// misses, then finds the value. Each pair of the second table names two
// registers of p1: the read never finds what the write wrote, and the trace
// prints the two apart.
func TestRegisterIdentity(t *testing.T) {
	same := []smmem.Reg{
		{Name: "bc/", Index: 5},
		{Name: "bc/"},
		{Name: "msg/3/", Index: 7},
		{Name: "input"},
		{Name: "7"},
		{},
		{Name: "bc/", Index: 1000000000},
	}
	for _, r := range same {
		want := fmt.Sprintf("%[1]s %[1]s=7 %[1]s=7", text(r))
		if got := registerReads(t, r, r); got != want {
			t.Errorf("write and read %+v: p2 read %q, want %q", r, got, want)
		}
	}
	distinct := []struct{ written, read smmem.Reg }{
		{smmem.Reg{Name: "bc/", Index: 5}, smmem.Reg{Name: "bc/", Index: 50}},
		{smmem.Reg{Name: "bc"}, smmem.Reg{Name: "bc/"}},
		{smmem.Reg{Name: "msg/3/", Index: 7}, smmem.Reg{Name: "msg/37/"}},
		{smmem.Reg{Name: "bc/", Index: 1000000000}, smmem.Reg{Name: "bc/", Index: 100000000}},
		{smmem.Reg{Name: "input"}, smmem.Reg{Owner: 1, Name: "input"}},
	}
	for _, c := range distinct {
		if c.read.Owner == c.written.Owner && text(c.read) == text(c.written) {
			t.Errorf("%+v and %+v print alike, as %s", c.read, c.written, text(c.read))
		}
		want := fmt.Sprintf("%[1]s %[1]s %[2]s=7", text(c.read), text(c.written))
		if got := registerReads(t, c.written, c.read); got != want {
			t.Errorf("write %+v, read %+v: p2 read %q, want %q", c.written, c.read, got, want)
		}
	}
}

// TestRegisterFarIndexAllocatesLittle: memory follows the registers written,
// not their indices. A run whose one process writes bc/ i and reads it back
// allocates as much for i = 1,000,000,000 as for i = 0, within a few
// hundred bytes of bookkeeping.
func TestRegisterFarIndexAllocatesLittle(t *testing.T) {
	allocated := func(i int) uint64 {
		cfg := smmem.Config{
			N: 1, T: 0, K: 1,
			Inputs: []types.Value{1},
			NewProtocol: func(types.ProcessID) smmem.Protocol {
				return runFunc(func(api smmem.API) {
					api.WriteValue("bc/", i, 5)
					read(api, smmem.Reg{Name: "bc/", Index: i}, func(p types.Payload, ok bool) {
						if !ok || p.Value != 5 {
							panic(fmt.Sprintf("bc/%d read back %v %v", i, p, ok))
						}
						api.Decide(p.Value)
					})
				})
			},
		}
		least := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := new(smmem.Runner).Run(cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	near, far := allocated(0), allocated(1000000000)
	if far > near+1024 {
		t.Errorf("a run writing bc/1000000000 allocated %d bytes, one writing bc/0 %d", far, near)
	}
}

// TestRegisterIndexPanics: a Reg whose Index is negative, or non-zero on a
// Name that does not end in '/', or whose Name has a '/' but does not end in
// one, names no register, and reading or writing it panics out of Run —
// also when a handler moves the Index of a register the poll has read
// before, and when the write is a handler's, queued until it returns.
func TestRegisterIndexPanics(t *testing.T) {
	const (
		nonZero  = "a non-zero Index needs a Name ending in /"
		negative = "negative Index"
		slash    = "a Name with a / must end in /"
	)
	inHandler := func(op func(api smmem.API)) func(api smmem.API) {
		return func(api smmem.API) {
			api.Poll(0, []smmem.Reg{{Name: "input"}}, func(int, types.Payload) bool {
				op(api)
				return false
			}, nil)
		}
	}
	scan := func(r smmem.Reg) func(api smmem.API) {
		return func(api smmem.API) { api.Scan([]smmem.Reg{r}, func(int, types.Payload, bool) {}, nil) }
	}
	cases := []struct {
		name string
		op   func(api smmem.API)
		want string
	}{
		{"poll", func(api smmem.API) {
			api.Poll(0, []smmem.Reg{{Owner: 0, Name: "input", Index: 3}}, func(int, types.Payload) bool { return false }, nil)
		}, nonZero},
		{"scan", scan(smmem.Reg{Owner: 0, Name: "bc", Index: 1}), nonZero},
		{"negative", scan(smmem.Reg{Owner: 0, Name: "bc/", Index: -1}), negative},
		{"read-slash", scan(smmem.Reg{Owner: 0, Name: "bc/5"}), slash},
		{"moved-in-handler", func(api smmem.API) {
			regs := []smmem.Reg{{Owner: 0, Name: "input"}}
			api.Poll(0, regs, func(int, types.Payload) bool {
				regs[0].Index++
				return true
			}, nil)
		}, nonZero},
		{"write", func(api smmem.API) { api.WriteValue("input", 3, 1) }, nonZero},
		{"write-negative", func(api smmem.API) { api.WriteValue("bc/", -1, 1) }, negative},
		{"write-slash", func(api smmem.API) { api.WriteValue("bc/5", 0, 1) }, slash},
		{"write-in-handler", inHandler(func(api smmem.API) { api.WriteValue("input", 3, 1) }), nonZero},
		{"write-negative-in-handler", inHandler(func(api smmem.API) { api.WriteValue("bc/", -1, 1) }), negative},
		{"write-slash-in-handler", inHandler(func(api smmem.API) { api.WriteValue("msg/3", 0, 1) }), slash},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := smmem.Config{
				N: 1, T: 0, K: 1,
				Inputs: []types.Value{1},
				NewProtocol: func(types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						api.WriteValue("input", 0, 1)
						c.op(api)
					})
				},
			}
			r := func() (r any) {
				defer func() { r = recover() }()
				_, _ = smmem.Run(cfg)
				return nil
			}()
			if !strings.Contains(fmt.Sprint(r), c.want) {
				t.Fatalf("Run's caller recovered %v, want a panic naming %q", r, c.want)
			}
		})
	}
}
