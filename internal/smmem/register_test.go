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

// text is the text of the register r names, as Reg's documentation states
// it: Name and the decimal Index when Name ends in '/', Name otherwise.
func text(r smmem.Reg) string {
	if strings.HasSuffix(r.Name, "/") {
		return r.Name + strconv.Itoa(r.Index)
	}
	return r.Name
}

// registerReads runs p1 writing 7 to its register written and p2 reading
// p1's read, by Scan, once before the write and once after, then written by
// Read; it returns p2's reads as the trace shows them, "text" for a miss and
// "text=value" for a hit.
func registerReads(t *testing.T, written string, read smmem.Reg) string {
	t.Helper()
	var reads []string
	cfg := smmem.Config{
		N: 2, T: 1, K: 2,
		Inputs: []types.Value{7, 8},
		NewProtocol: func(id types.ProcessID) smmem.Protocol {
			return runFunc(func(api smmem.API) {
				if id == 0 {
					_, _ = api.Read(0, "x")
					api.WriteValue(written, 7)
					api.Decide(7)
					return
				}
				scanOnce := func() { api.Scan([]smmem.Reg{read}, func(int, types.Payload, bool) {}) }
				scanOnce()
				_, _ = api.Read(0, "x")
				scanOnce()
				_, _ = api.Read(0, written)
				api.Decide(8)
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
			reads = append(reads, r)
		},
	}
	if _, err := smmem.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return strings.Join(reads, " ")
}

// TestRegisterIdentity: a register is its text. Each pair below is one
// register written by its text and read by a Reg, before and after the
// write, and by the text again: the Reg misses, then finds the value, under
// the text. Each pair of the second table names two registers: the Reg
// never finds what the text wrote, and its reads carry its own text.
func TestRegisterIdentity(t *testing.T) {
	same := []struct {
		text string
		reg  smmem.Reg
	}{
		{"bc/5", smmem.Reg{Name: "bc/", Index: 5}},
		{"bc/5", smmem.Reg{Name: "bc/5"}},
		{"bc/0", smmem.Reg{Name: "bc/", Index: 0}},
		{"bc/0", smmem.Reg{Name: "bc/"}},
		{"msg/3/7", smmem.Reg{Name: "msg/3/", Index: 7}},
		{"msg/3/7", smmem.Reg{Name: "msg/3/7"}},
		{"input", smmem.Reg{Name: "input"}},
		{"bc/05", smmem.Reg{Name: "bc/05"}},
		{"x/", smmem.Reg{Name: "x/"}}, // no Reg names x/: this one is x/0
		{"x/0", smmem.Reg{Name: "x/"}},
		{"7", smmem.Reg{Name: "7"}},
		{"", smmem.Reg{}},
		{"bc/1000000000", smmem.Reg{Name: "bc/", Index: 1000000000}},
		{"bc/99999999999999999999", smmem.Reg{Name: "bc/99999999999999999999"}},
	}
	for _, c := range same {
		want := fmt.Sprintf("%[1]s %[1]s=7 %[1]s=7", c.text)
		if c.text != text(c.reg) {
			want = fmt.Sprintf("%[1]s %[1]s %[2]s=7", text(c.reg), c.text)
		}
		if got := registerReads(t, c.text, c.reg); got != want {
			t.Errorf("write %q, read %+v: p2 read %q, want %q", c.text, c.reg, got, want)
		}
	}
	distinct := []struct {
		text string
		reg  smmem.Reg
	}{
		{"bc/05", smmem.Reg{Name: "bc/", Index: 5}},
		{"bc/5", smmem.Reg{Name: "bc/05"}},
		{"bc/5", smmem.Reg{Name: "bc/", Index: 50}},
		{"bc/", smmem.Reg{Name: "bc/"}},
		{"bc", smmem.Reg{Name: "bc/"}},
		{"msg/3/7", smmem.Reg{Name: "msg/37/"}},
		{"bc/1000000000", smmem.Reg{Name: "bc/", Index: 100000000}},
	}
	for _, c := range distinct {
		want := fmt.Sprintf("%[1]s %[1]s %[2]s=7", text(c.reg), c.text)
		if got := registerReads(t, c.text, c.reg); got != want {
			t.Errorf("write %q, read %+v: p2 read %q, want %q", c.text, c.reg, got, want)
		}
	}
}

// TestRegisterFarIndexAllocatesLittle: memory follows the registers written,
// not their indices. A run whose one process writes bc/<i> and reads it back
// allocates as much for i = 1,000,000,000 as for i = 0, within a few
// hundred bytes of bookkeeping.
func TestRegisterFarIndexAllocatesLittle(t *testing.T) {
	allocated := func(i int) uint64 {
		cfg := smmem.Config{
			N: 1, T: 0, K: 1,
			Inputs: []types.Value{1},
			NewProtocol: func(types.ProcessID) smmem.Protocol {
				return runFunc(func(api smmem.API) {
					api.WriteValue("bc/"+strconv.Itoa(i), 5)
					api.Scan([]smmem.Reg{{Name: "bc/", Index: i}}, func(_ int, p types.Payload, ok bool) {
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
// Name that does not end in '/', names no register, and reading it panics
// out of Run — also when a handler moves the Index of a register the poll
// has read before.
func TestRegisterIndexPanics(t *testing.T) {
	cases := []struct {
		name string
		read func(api smmem.API)
		want string
	}{
		{"poll", func(api smmem.API) {
			api.Poll(0, []smmem.Reg{{Owner: 0, Name: "input", Index: 3}}, func(int, types.Payload) bool { return false })
		}, "a non-zero Index needs a Name ending in /"},
		{"scan", func(api smmem.API) {
			api.Scan([]smmem.Reg{{Owner: 0, Name: "bc/5", Index: 1}}, func(int, types.Payload, bool) {})
		}, "a non-zero Index needs a Name ending in /"},
		{"negative", func(api smmem.API) {
			api.Scan([]smmem.Reg{{Owner: 0, Name: "bc/", Index: -1}}, func(int, types.Payload, bool) {})
		}, "negative Index"},
		{"moved-in-handler", func(api smmem.API) {
			regs := []smmem.Reg{{Owner: 0, Name: "input"}}
			api.Poll(0, regs, func(int, types.Payload) bool {
				regs[0].Index++
				return true
			})
		}, "a non-zero Index needs a Name ending in /"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := smmem.Config{
				N: 1, T: 0, K: 1,
				Inputs: []types.Value{1},
				NewProtocol: func(types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						api.WriteValue("input", 1)
						c.read(api)
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
