package packet

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire format (Figure 4 of the paper, modeled after the HMC 1.1
// specification). Each flit is 128 bits, stored here as two uint64 words,
// least-significant word first. The first flit's low word is the header;
// the last flit's high word is the tail.
//
// Header (64 bits):
//
//	[5:0]   CMD     command code
//	[9:6]   LNG     packet length in flits (duplicated in tail as DLN)
//	[22:12] TAG     transaction tag
//	[57:24] ADRS    34-bit byte address
//	[63:61] CUB     cube id
//
// Tail (64 bits):
//
//	[3:0]   DLN     duplicate length, checked against LNG
//	[8:4]   RTC     return token count (link-level flow control)
//	[11:9]  SEQ     3-bit link sequence number
//	[19:12] FRP     forward retry pointer
//	[27:20] RRP     return retry pointer
//	[63:32] CRC     CRC-32 over the packet with the CRC field zeroed
//
// Data payload flits sit between header and tail. For a 1-flit packet the
// header occupies the low word and the tail the high word of the same flit
// (Figure 4a).

// Wire command codes. These are distinct from the in-simulator Command
// enum so the codec can reject unknown codes explicitly.
const (
	wireNull  = 0x00
	wireTRET  = 0x02
	wireIRTRY = 0x03
	// Read requests: 0x30 + (flits of data requested - 1).
	wireReadBase = 0x30
	// Write requests: 0x08 + (data flits - 1).
	wireWriteBase = 0x08
	// Read responses: 0x38 + (data flits - 1); write response: 0x07.
	wireReadRespBase = 0x38
	wireWriteResp    = 0x07
)

// Tail holds the link-maintenance fields carried in a packet tail.
type Tail struct {
	RTC uint8 // return token count
	SEQ uint8 // sequence number, 3 bits
	FRP uint8 // forward retry pointer
	RRP uint8 // return retry pointer
}

var (
	// ErrCRC reports a corrupted packet.
	ErrCRC = errors.New("packet: CRC mismatch")
	// ErrMalformed reports an undecodable packet.
	ErrMalformed = errors.New("packet: malformed")
)

func wireCmd(p *Packet) (uint64, error) {
	switch p.Cmd {
	case CmdNull:
		return wireNull, nil
	case CmdTRET:
		return wireTRET, nil
	case CmdIRTRY:
		return wireIRTRY, nil
	case CmdRead:
		if !ValidSize(p.Size) {
			return 0, fmt.Errorf("%w: read size %d", ErrMalformed, p.Size)
		}
		return wireReadBase + uint64(p.Size/FlitBytes-1), nil
	case CmdWrite:
		if !ValidSize(p.Size) {
			return 0, fmt.Errorf("%w: write size %d", ErrMalformed, p.Size)
		}
		return wireWriteBase + uint64(p.Size/FlitBytes-1), nil
	case CmdReadResp:
		if !ValidSize(p.Size) {
			return 0, fmt.Errorf("%w: read response size %d", ErrMalformed, p.Size)
		}
		return wireReadRespBase + uint64(p.Size/FlitBytes-1), nil
	case CmdWriteResp:
		return wireWriteResp, nil
	}
	return 0, fmt.Errorf("%w: unknown command %v", ErrMalformed, p.Cmd)
}

// Encode serializes p and its tail fields into flit words (two uint64 per
// flit, low word first). Data payload words carry data, or are zero when
// data is nil; the simulator tracks timing, not contents. The CRC is
// computed over the encoded packet with the CRC field zeroed and then
// inserted. A field that does not fit its wire width is an ErrMalformed
// error, never truncated.
func Encode(p *Packet, tail Tail, data []byte) ([]uint64, error) {
	cmd, err := wireCmd(p)
	if err != nil {
		return nil, err
	}
	flits := p.Flits()
	if p.Addr >= 1<<34 {
		return nil, fmt.Errorf("%w: address %#x exceeds 34 bits", ErrMalformed, p.Addr)
	}
	if p.Tag >= 1<<11 {
		return nil, fmt.Errorf("%w: tag %d exceeds 11 bits", ErrMalformed, p.Tag)
	}
	if p.Cube >= 1<<3 {
		return nil, fmt.Errorf("%w: cube %d exceeds 3 bits", ErrMalformed, p.Cube)
	}
	if tail.RTC >= 1<<5 {
		return nil, fmt.Errorf("%w: return token count %d exceeds 5 bits", ErrMalformed, tail.RTC)
	}
	if tail.SEQ >= 1<<3 {
		return nil, fmt.Errorf("%w: sequence number %d exceeds 3 bits", ErrMalformed, tail.SEQ)
	}
	if data != nil && len(data) != p.DataFlits()*FlitBytes {
		return nil, fmt.Errorf("%w: data length %d, want %d", ErrMalformed, len(data), p.DataFlits()*FlitBytes)
	}
	words := make([]uint64, 2*flits)
	header := cmd |
		uint64(flits)<<6 |
		uint64(p.Tag)<<12 |
		p.Addr<<24 |
		uint64(p.Cube)<<61
	words[0] = header
	// Pack payload bytes little-endian into the words between header and
	// tail. The payload region starts at bit 64 of flit 0.
	for i, b := range data {
		bit := 64 + i*8
		words[bit/64] |= uint64(b) << (bit % 64)
	}
	tailWord := uint64(flits) |
		uint64(tail.RTC)<<4 |
		uint64(tail.SEQ)<<9 |
		uint64(tail.FRP)<<12 |
		uint64(tail.RRP)<<20
	words[2*flits-1] |= tailWord
	words[2*flits-1] |= uint64(crcOf(words)) << 32
	return words, nil
}

// crcOf computes the packet CRC with the CRC field (top 32 bits of the
// last word) treated as zero.
func crcOf(words []uint64) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for i, w := range words {
		if i == len(words)-1 {
			w &= 0xFFFFFFFF // zero the CRC field
		}
		for b := 0; b < 8; b++ {
			buf[b] = byte(w >> (8 * b))
		}
		h.Write(buf[:])
	}
	return h.Sum32()
}

// Decode parses flit words produced by Encode, verifies the CRC and the
// duplicate-length field, and reconstructs the packet, tail fields and
// payload bytes.
func Decode(words []uint64) (*Packet, Tail, []byte, error) {
	if len(words) < 2 || len(words)%2 != 0 {
		return nil, Tail{}, nil, fmt.Errorf("%w: %d words", ErrMalformed, len(words))
	}
	last := words[len(words)-1]
	if uint32(last>>32) != crcOf(words) {
		return nil, Tail{}, nil, ErrCRC
	}
	header := words[0]
	lng := int(header >> 6 & 0xF)
	if lng*2 != len(words) {
		return nil, Tail{}, nil, fmt.Errorf("%w: LNG %d for %d words", ErrMalformed, lng, len(words))
	}
	dln := int(last & 0xF)
	if dln != lng&0xF {
		return nil, Tail{}, nil, fmt.Errorf("%w: DLN %d != LNG %d", ErrMalformed, dln, lng)
	}
	p := &Packet{
		Tag:  uint16(header >> 12 & 0x7FF),
		Addr: header >> 24 & (1<<34 - 1),
		Cube: uint8(header >> 61 & 0x7),
	}
	cmd := header & 0x3F
	switch {
	case cmd == wireNull:
		p.Cmd = CmdNull
	case cmd == wireTRET:
		p.Cmd = CmdTRET
	case cmd == wireIRTRY:
		p.Cmd = CmdIRTRY
	case cmd == wireWriteResp:
		p.Cmd = CmdWriteResp
	case cmd >= wireReadRespBase && cmd < wireReadRespBase+8:
		p.Cmd = CmdReadResp
		p.Size = int(cmd-wireReadRespBase+1) * FlitBytes
	case cmd >= wireReadBase && cmd < wireReadBase+8:
		p.Cmd = CmdRead
		p.Size = int(cmd-wireReadBase+1) * FlitBytes
	case cmd >= wireWriteBase && cmd < wireWriteBase+8:
		p.Cmd = CmdWrite
		p.Size = int(cmd-wireWriteBase+1) * FlitBytes
	default:
		return nil, Tail{}, nil, fmt.Errorf("%w: command code %#x", ErrMalformed, cmd)
	}
	if p.Flits() != lng {
		return nil, Tail{}, nil, fmt.Errorf("%w: command %v implies %d flits, LNG says %d", ErrMalformed, p.Cmd, p.Flits(), lng)
	}
	tail := Tail{
		RTC: uint8(last >> 4 & 0x1F),
		SEQ: uint8(last >> 9 & 0x7),
		FRP: uint8(last >> 12 & 0xFF),
		RRP: uint8(last >> 20 & 0xFF),
	}
	var data []byte
	if n := p.DataFlits() * FlitBytes; n > 0 {
		data = make([]byte, n)
		for i := range data {
			bit := 64 + i*8
			data[i] = byte(words[bit/64] >> (bit % 64))
		}
	}
	return p, tail, data, nil
}

// Corrupt flips one bit of an encoded packet, for link-retry testing.
func Corrupt(words []uint64, bit int) {
	words[bit/64%len(words)] ^= 1 << (bit % 64)
}
