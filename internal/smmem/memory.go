package smmem

import (
	"strconv"

	"kset/internal/types"
)

// memory is the registers of a run. A register is identified by its text,
// and the store splits the text into a family and an index: "bc/5" is index
// 5 of family "bc/", "msg/3/7" index 7 of "msg/3/", and a text without a
// canonical decimal tail ("input", "bc/", "bc/05") is index 0 of a family of
// its own. Families are numbered from 1 in the order they are first named, and
// each owner keeps each family's registers 0, 1, 2, ... as one dense slice,
// so a read whose family is known is three slice indexings. A family's
// slices are made at its first write, and a register written past its
// family's end goes to spill, keyed by (owner, family, index), until the
// slice reaches it; memory therefore stays proportional to the registers
// written, however far apart their indices.
//
// Everything is kept from one run to the next on the Runner's arena: the
// spill is cleared and the slices truncated, and the family table is kept
// whole, so a family has one number for the Runner's life and a Name a
// process resolved in one run still holds in the next. The table grows with the
// distinct family names the Runner's runs use, which their protocols fix.
type memory struct {
	// The family table: indexed[name] numbers the family of the texts name
	// followed by a canonical decimal index, named[text] the family of the
	// one register text.
	indexed, named map[string]int
	// regs[f][o] is o's registers of family f, all written; regs[f] is nil
	// until f's first write.
	regs   [][][]types.Payload
	spill  map[spillKey]types.Payload
	n      int // owners this run
	writes int // writes granted this run
}

type spillKey struct {
	owner  types.ProcessID
	fam, i int
}

func (m *memory) reset(n int) {
	if m.indexed == nil {
		m.indexed, m.named = make(map[string]int), make(map[string]int)
		m.regs = make([][][]types.Payload, 1) // family 0 stands for none
	}
	clear(m.spill)
	m.n, m.writes = n, 0
	for f, rs := range m.regs {
		if rs == nil {
			continue
		}
		if cap(rs) < n {
			rs = append(rs[:cap(rs)], make([][]types.Payload, n-cap(rs))...)
		}
		rs = rs[:cap(rs)]
		for o := range rs {
			rs[o] = rs[o][:0]
		}
		m.regs[f] = rs[:n]
	}
}

// family returns the number table gives name, numbering a new family on
// first sight.
func (m *memory) family(table map[string]int, name string) int {
	f, ok := table[name]
	if !ok {
		f = len(m.regs)
		table[name] = f
		m.regs = append(m.regs, nil)
	}
	return f
}

// byText returns the family and index of the register whose text is text.
func (m *memory) byText(text string) (f, i int) {
	j := len(text)
	for j > 0 && '0' <= text[j-1] && text[j-1] <= '9' {
		j--
	}
	if tail := text[j:]; tail != "" && (tail == "0" || tail[0] != '0') {
		if i, err := strconv.Atoi(tail); err == nil {
			return m.family(m.indexed, text[:j]), i
		}
	}
	return m.family(m.named, text), 0
}

// resolved is what a Reg's Name resolves to: its family, and the index the
// Name fixes, or -1 when the Name ends in '/' and the index is the Reg's.
// The zero value, family 0, is no Name.
type resolved struct {
	name    string
	fam, at int
}

// resolve looks a Reg's Name up.
func (m *memory) resolve(name string) resolved {
	if name != "" && name[len(name)-1] == '/' {
		return resolved{name, m.family(m.indexed, name), -1}
	}
	f, at := m.byText(name)
	return resolved{name, f, at}
}

// regText is the text of the register r names.
func regText(r Reg) string {
	if r.Name != "" && r.Name[len(r.Name)-1] == '/' {
		return r.Name + strconv.Itoa(r.Index)
	}
	return r.Name
}

// read returns owner's register i of family f. A process that does not
// exist has written nothing.
func (m *memory) read(owner types.ProcessID, f, i int) (types.Payload, bool) {
	if rs := m.regs[f]; uint(owner) < uint(len(rs)) {
		if d := rs[owner]; i < len(d) {
			return d[i], true
		}
		if len(m.spill) > 0 {
			p, ok := m.spill[spillKey{owner, f, i}]
			return p, ok
		}
	}
	return types.Payload{}, false
}

// write stores p in owner's register i of family f: in the family's slice
// when i is inside it or its next index — then also every spilled register
// the slice now reaches — and in spill when i lies beyond.
func (m *memory) write(owner types.ProcessID, f, i int, p types.Payload) {
	m.writes++
	if m.regs[f] == nil {
		m.regs[f] = make([][]types.Payload, m.n)
	}
	d := m.regs[f][owner]
	switch {
	case i < len(d):
		d[i] = p
		return
	case i > len(d):
		if m.spill == nil {
			m.spill = make(map[spillKey]types.Payload)
		}
		m.spill[spillKey{owner, f, i}] = p
		return
	}
	d = append(d, p)
	for len(m.spill) > 0 {
		k := spillKey{owner, f, len(d)}
		q, ok := m.spill[k]
		if !ok {
			break
		}
		delete(m.spill, k)
		d = append(d, q)
	}
	m.regs[f][owner] = d
}
