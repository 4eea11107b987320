// Package mem defines the data model shared by every coherence component:
// physical addresses, 64-byte cache lines carried by coherence messages,
// and the backing DRAM of the CXL memory device.
//
// Lines carry real data (8 words of 64 bits). Litmus tests and the
// model checker's terminal outcomes read these words, so data is never
// faked: every coherence message that logically transfers a line
// transfers these bytes.
package mem

import "fmt"

// LineBytes is the cache line size. LineWords is the number of 64-bit
// words per line, the granularity of core loads and stores. LineShift is
// log2(LineBytes), for deriving line indices by shift; the compile-time
// check below keeps the two constants from drifting.
const (
	LineBytes = 64
	LineWords = LineBytes / 8
	LineShift = 6
)

// Compile-time guard: 1<<LineShift must equal LineBytes (a non-zero
// index into a one-element array fails to compile).
var _ = [1]struct{}{}[LineBytes-(1<<LineShift)]

// Addr is a physical byte address.
type Addr uint64

// LineAddr is an address rounded down to a line boundary. All coherence
// state is tracked at this granularity.
type LineAddr uint64

// Line returns the line address containing a.
func (a Addr) Line() LineAddr { return LineAddr(a &^ (LineBytes - 1)) }

// WordIndex returns which of the line's 8 words a falls in.
func (a Addr) WordIndex() int { return int(a>>3) & (LineWords - 1) }

// Addr returns the byte address of the first word of the line.
func (l LineAddr) Addr() Addr { return Addr(l) }

func (l LineAddr) String() string { return fmt.Sprintf("0x%x", uint64(l)) }

// Data is the payload of one cache line.
type Data [LineWords]uint64

// Word reads word i.
func (d *Data) Word(i int) uint64 { return d[i] }

// SetWord writes word i.
func (d *Data) SetWord(i int, v uint64) { d[i] = v }
