// Package packet models the HMC 1.1 transaction-layer packets that the
// timing model moves: the read and write commands, packet sizes in
// 16-byte flits (Table I of the paper), and the Transaction that carries
// one access's request and response packets and its stage timestamps.
package packet

import (
	"fmt"

	"hmcsim/internal/sim"
)

// FlitBytes is the size of one flit, the 16-byte unit from which all HMC
// packets are built.
const FlitBytes = 16

// OverheadBytes is the protocol overhead of every request and response
// packet: one flit shared by the header and tail (64 bits each).
const OverheadBytes = FlitBytes

// MaxDataBytes is the largest data payload of a single packet (8 flits).
const MaxDataBytes = 8 * FlitBytes

// Command identifies an HMC transaction-layer packet type. The simulator
// implements the read and write commands at every legal payload size.
type Command uint8

const (
	// CmdRead is a read request; the payload size lives in the packet's
	// Size field. Read requests carry no data (1 flit total).
	CmdRead Command = iota
	// CmdWrite is a posted-or-ack'd write request carrying Size bytes.
	CmdWrite
	// CmdReadResp is a read response carrying Size bytes of data.
	CmdReadResp
	// CmdWriteResp is a write acknowledgment (1 flit, no data).
	CmdWriteResp
)

var cmdNames = [...]string{"RD", "WR", "RD_RS", "WR_RS"}

func (c Command) String() string {
	if int(c) < len(cmdNames) {
		return cmdNames[c]
	}
	return fmt.Sprintf("Command(%d)", uint8(c))
}

// IsRequest reports whether the command travels host -> HMC.
func (c Command) IsRequest() bool { return c == CmdRead || c == CmdWrite }

// IsResponse reports whether the command travels HMC -> host.
func (c Command) IsResponse() bool { return c == CmdReadResp || c == CmdWriteResp }

// ValidSize reports whether n is a legal data payload size: a multiple of
// 16 bytes between 16 and 128 (1 to 8 flits).
func ValidSize(n int) bool {
	return n >= FlitBytes && n <= MaxDataBytes && n%FlitBytes == 0
}

// Packet is one transaction-layer packet. Data payload is represented by
// its size only; the simulator models timing, not memory contents.
type Packet struct {
	Cmd  Command
	Tag  uint16 // transaction tag
	Addr uint64 // byte address
	Size int    // data payload bytes (0 for a write response)

	// Link is the external link the transaction used; its response is
	// routed back on it.
	Link int

	// Tr points at the owning transaction. Real hardware recovers it via
	// the tag; the simulator carries the pointer so components do not
	// each need a tag table.
	Tr *Transaction
}

// DataFlits returns the number of data flits in the packet.
func (p *Packet) DataFlits() int {
	switch p.Cmd {
	case CmdWrite, CmdReadResp:
		return p.Size / FlitBytes
	default:
		return 0
	}
}

// Flits returns the total packet length in flits, including the one flit
// of header+tail overhead (Table I: requests and responses are 1 flit of
// overhead plus 1-8 data flits).
func (p *Packet) Flits() int { return 1 + p.DataFlits() }

func (p *Packet) String() string {
	return fmt.Sprintf("%v tag=%d addr=%#x size=%d (%d flits)",
		p.Cmd, p.Tag, p.Addr, p.Size, p.Flits())
}

// RequestFlits returns the total request-packet size in flits for a read
// or write of size data bytes — the "Request" column of Table I.
func RequestFlits(write bool, size int) int {
	if write {
		return 1 + size/FlitBytes
	}
	return 1
}

// ResponseFlits returns the total response-packet size in flits — the
// "Response" column of Table I.
func ResponseFlits(write bool, size int) int {
	if write {
		return 1
	}
	return 1 + size/FlitBytes
}

// RoundTripBytes returns the combined request+response size in bytes for
// one transaction of the given kind and payload size. The paper computes
// bandwidth by "multiplying the number of accesses by the cumulative size
// of request and response packets including header, tail and data
// payload"; experiments use this helper for exactly that arithmetic.
func RoundTripBytes(write bool, size int) int {
	return (RequestFlits(write, size) + ResponseFlits(write, size)) * FlitBytes
}

// Efficiency returns the fraction of a read response occupied by data, the
// bandwidth-efficiency figure the paper derives (50% at 16 B, 89% at
// 128 B).
func Efficiency(size int) float64 {
	return float64(size) / float64(size+OverheadBytes)
}

// Transaction tracks one read or write through the full system and records
// the timestamps the monitoring logic (Section III-B) uses. A Transaction
// carries its own request and response packets, so an access allocates
// no packet; the tag pool of the host port that issues it owns the
// Transaction and reuses it for later accesses.
type Transaction struct {
	ID    uint64
	Write bool
	Addr  uint64
	Size  int

	Port int    // issuing host port
	Link int    // external link used
	Tag  uint16 // tag assigned by the port's tag pool

	Vault, Quadrant, Bank int    // destination decoded from Addr
	Row                   uint64 // DRAM row within the bank

	// Timestamps, zero until the stage is reached.
	TGen      sim.Time // created by the address generator / trace reader
	TPortOut  sim.Time // left the port's request FIFO
	TLinkTx   sim.Time // finished serializing onto the external link
	TVaultIn  sim.Time // entered the vault controller's bank queue
	TIssued   sim.Time // issued to the DRAM bank
	TVaultOut sim.Time // response left the vault into the NoC
	TLinkRx   sim.Time // response finished deserializing at the host
	TDone     sim.Time // response retired by the port (latency endpoint)

	req, resp Packet
}

// Latency returns the monitored round-trip time: generation to retirement.
func (t *Transaction) Latency() sim.Time { return t.TDone - t.TGen }

// HMCLatency returns the time spent inside the memory device itself
// (link arrival to response injection), used by the Little's-law analysis
// of Figure 14.
func (t *Transaction) HMCLatency() sim.Time { return t.TVaultOut - t.TLinkTx }

// RequestPacket builds the packet for the transaction's request in
// the transaction's own request slot and returns a pointer to it. Each
// call rebuilds that one packet, so it must not be called again while
// the request is in flight.
func (t *Transaction) RequestPacket(tag uint16) *Packet {
	cmd := CmdRead
	if t.Write {
		cmd = CmdWrite
	}
	// Read requests carry the requested size in the command encoding but no
	// data flits; DataFlits is zero for CmdRead regardless of Size.
	t.req = Packet{Cmd: cmd, Tag: tag, Addr: t.Addr, Size: t.Size, Link: t.Link, Tr: t}
	return &t.req
}

// ResponsePacket builds the packet for the transaction's response
// in the transaction's own response slot and returns a pointer to it.
// Each call rebuilds that one packet. The cube builds it on every
// attempt a vault makes to send the response, which is safe because a
// refused attempt leaves no reference to it in the fabric.
func (t *Transaction) ResponsePacket(tag uint16) *Packet {
	cmd := CmdReadResp
	size := t.Size
	if t.Write {
		cmd = CmdWriteResp
		size = 0
	}
	t.resp = Packet{Cmd: cmd, Tag: tag, Addr: t.Addr, Size: size, Link: t.Link, Tr: t}
	return &t.resp
}

// RoundTripBytes returns the counted request+response bytes for this
// transaction (see the package-level RoundTripBytes).
func (t *Transaction) RoundTripBytes() int { return RoundTripBytes(t.Write, t.Size) }
