package packet

import (
	"errors"
	"testing"
	"testing/quick"

	"hmcsim/internal/sim"
)

// TestTableISizes verifies the request/response sizes of Table I.
func TestTableISizes(t *testing.T) {
	cases := []struct {
		size                int
		reqRead, respRead   int
		reqWrite, respWrite int
	}{
		{16, 1, 2, 2, 1},
		{32, 1, 3, 3, 1},
		{64, 1, 5, 5, 1},
		{128, 1, 9, 9, 1},
	}
	for _, c := range cases {
		if got := RequestFlits(false, c.size); got != c.reqRead {
			t.Errorf("read request %dB = %d flits, want %d", c.size, got, c.reqRead)
		}
		if got := ResponseFlits(false, c.size); got != c.respRead {
			t.Errorf("read response %dB = %d flits, want %d", c.size, got, c.respRead)
		}
		if got := RequestFlits(true, c.size); got != c.reqWrite {
			t.Errorf("write request %dB = %d flits, want %d", c.size, got, c.reqWrite)
		}
		if got := ResponseFlits(true, c.size); got != c.respWrite {
			t.Errorf("write response %dB = %d flits, want %d", c.size, got, c.respWrite)
		}
	}
}

func TestTableIBounds(t *testing.T) {
	// "Data Size 1~8 flits, Total Size 2~9 flits" for the data-carrying
	// directions; 1 flit for the empty directions.
	for size := 16; size <= 128; size += 16 {
		p := Packet{Cmd: CmdReadResp, Size: size}
		if p.Flits() < 2 || p.Flits() > 9 {
			t.Errorf("read response %dB: %d flits outside 2..9", size, p.Flits())
		}
		q := Packet{Cmd: CmdRead, Size: size}
		if q.Flits() != 1 {
			t.Errorf("read request %dB: %d flits, want 1", size, q.Flits())
		}
	}
}

func TestEfficiency(t *testing.T) {
	// The paper: 16 B responses are 50% efficient, 128 B are 89%.
	if got := Efficiency(16); got != 0.5 {
		t.Errorf("Efficiency(16) = %v, want 0.5", got)
	}
	if got := Efficiency(128); got < 0.888 || got > 0.890 {
		t.Errorf("Efficiency(128) = %v, want ~0.889", got)
	}
}

func TestRoundTripBytes(t *testing.T) {
	// 128 B read: 1-flit request + 9-flit response = 160 B.
	if got := RoundTripBytes(false, 128); got != 160 {
		t.Errorf("read 128B round trip = %d, want 160", got)
	}
	// 16 B read: 1 + 2 flits = 48 B.
	if got := RoundTripBytes(false, 16); got != 48 {
		t.Errorf("read 16B round trip = %d, want 48", got)
	}
	// 64 B write: 5-flit request + 1-flit response = 96 B.
	if got := RoundTripBytes(true, 64); got != 96 {
		t.Errorf("write 64B round trip = %d, want 96", got)
	}
}

func TestValidSize(t *testing.T) {
	for _, ok := range []int{16, 32, 48, 64, 80, 96, 112, 128} {
		if !ValidSize(ok) {
			t.Errorf("ValidSize(%d) = false, want true", ok)
		}
	}
	for _, bad := range []int{0, 8, 15, 17, 144, -16} {
		if ValidSize(bad) {
			t.Errorf("ValidSize(%d) = true, want false", bad)
		}
	}
}

func TestFlowPacketsOneFlit(t *testing.T) {
	for _, cmd := range []Command{CmdNull, CmdTRET, CmdIRTRY} {
		p := Packet{Cmd: cmd}
		if p.Flits() != 1 {
			t.Errorf("%v: %d flits, want 1", cmd, p.Flits())
		}
		if !cmd.IsFlow() {
			t.Errorf("%v.IsFlow() = false", cmd)
		}
	}
}

func TestCommandClassification(t *testing.T) {
	if !CmdRead.IsRequest() || !CmdWrite.IsRequest() {
		t.Error("read/write not classified as requests")
	}
	if !CmdReadResp.IsResponse() || !CmdWriteResp.IsResponse() {
		t.Error("responses not classified as responses")
	}
	if CmdRead.IsResponse() || CmdReadResp.IsRequest() {
		t.Error("request/response classification crossed")
	}
}

func TestTransactionPackets(t *testing.T) {
	tr := &Transaction{Write: false, Addr: 0x1234560, Size: 64, Port: 3, Link: 1}
	req := tr.RequestPacket(17)
	if req.Cmd != CmdRead || req.Flits() != 1 || req.Tag != 17 {
		t.Errorf("request packet = %v", req)
	}
	resp := tr.ResponsePacket(17)
	if resp.Cmd != CmdReadResp || resp.Flits() != 5 || resp.Size != 64 {
		t.Errorf("response packet = %v", resp)
	}
	w := &Transaction{Write: true, Size: 32}
	if w.RequestPacket(0).Flits() != 3 || w.ResponsePacket(0).Flits() != 1 {
		t.Errorf("write packets = %v / %v", w.RequestPacket(0), w.ResponsePacket(0))
	}
}

func TestTransactionLatencies(t *testing.T) {
	tr := &Transaction{
		TGen:      100 * sim.Nanosecond,
		TLinkTx:   300 * sim.Nanosecond,
		TVaultOut: 500 * sim.Nanosecond,
		TDone:     800 * sim.Nanosecond,
	}
	if got := tr.Latency(); got != 700*sim.Nanosecond {
		t.Errorf("Latency = %v, want 700ns", got)
	}
	if got := tr.HMCLatency(); got != 200*sim.Nanosecond {
		t.Errorf("HMCLatency = %v, want 200ns", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Packet{
		{Cmd: CmdRead, Tag: 5, Addr: 0x2_1234_5670, Size: 128},
		{Cmd: CmdWrite, Tag: 2047, Addr: 0xFFF0, Size: 16},
		{Cmd: CmdReadResp, Tag: 0, Addr: 0, Size: 64},
		{Cmd: CmdWriteResp, Tag: 1},
		{Cmd: CmdNull},
		{Cmd: CmdTRET},
		{Cmd: CmdIRTRY},
	}
	for _, want := range cases {
		tail := Tail{RTC: 9, SEQ: 5, FRP: 0xAB, RRP: 0xCD}
		words, err := Encode(&want, tail, nil)
		if err != nil {
			t.Fatalf("Encode(%v): %v", &want, err)
		}
		if len(words) != 2*want.Flits() {
			t.Fatalf("%v encoded to %d words, want %d", &want, len(words), 2*want.Flits())
		}
		got, gotTail, _, err := Decode(words)
		if err != nil {
			t.Fatalf("Decode(%v): %v", &want, err)
		}
		if got.Cmd != want.Cmd || got.Tag != want.Tag || got.Size != want.Size {
			t.Errorf("round trip %v -> %v", &want, got)
		}
		if want.Cmd != CmdNull && got.Addr != want.Addr&(1<<34-1) {
			t.Errorf("addr round trip %#x -> %#x", want.Addr, got.Addr)
		}
		if gotTail != tail {
			t.Errorf("tail round trip %+v -> %+v", tail, gotTail)
		}
	}
}

func TestEncodeDecodeData(t *testing.T) {
	data := make([]byte, 48)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	p := &Packet{Cmd: CmdWrite, Tag: 7, Addr: 0x40, Size: 48}
	words, err := Encode(p, Tail{}, data)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := Decode(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("payload length %d, want %d", len(got), len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("payload[%d] = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	p := &Packet{Cmd: CmdReadResp, Tag: 33, Addr: 0xABCDE0, Size: 128}
	words, err := Encode(p, Tail{RTC: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip every bit position in turn; all must be caught by CRC (or by
	// structural checks, which are also acceptable detections).
	for bit := 0; bit < 64*len(words); bit += 37 {
		w := make([]uint64, len(words))
		copy(w, words)
		Corrupt(w, bit)
		if _, _, _, err := Decode(w); err == nil {
			t.Fatalf("bit flip at %d not detected", bit)
		}
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	bad := []struct {
		p    Packet
		tail Tail
	}{
		{p: Packet{Cmd: CmdRead, Size: 0}},
		{p: Packet{Cmd: CmdRead, Size: 24}},
		{p: Packet{Cmd: CmdWrite, Size: 256}},
		{p: Packet{Cmd: CmdRead, Size: 16, Addr: 1 << 34}},
		{p: Packet{Cmd: CmdRead, Size: 16, Tag: 1 << 11}},
		{p: Packet{Cmd: CmdRead, Size: 16, Cube: 1 << 3}},
		{p: Packet{Cmd: CmdRead, Size: 16}, tail: Tail{RTC: 1 << 5}},
		{p: Packet{Cmd: CmdRead, Size: 16}, tail: Tail{SEQ: 1 << 3}},
		{p: Packet{Cmd: Command(99)}},
	}
	for _, c := range bad {
		if _, err := Encode(&c.p, c.tail, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("Encode(%+v, %+v) = %v, want ErrMalformed", c.p, c.tail, err)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	p := &Packet{Cmd: CmdReadResp, Tag: 1, Size: 64}
	words, _ := Encode(p, Tail{}, nil)
	if _, _, _, err := Decode(words[:2]); err == nil {
		t.Error("truncated packet decoded without error")
	}
	if _, _, _, err := Decode(words[:3]); err == nil {
		t.Error("odd-length packet decoded without error")
	}
	if _, _, _, err := Decode(nil); err == nil {
		t.Error("empty packet decoded without error")
	}
}

// TestWireRoundTripProperty fuzzes the codec over random legal packets.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(tagRaw uint16, addrRaw uint64, sizeIdx uint8, write bool, rtc, seq uint8) bool {
		p := Packet{
			Tag:  tagRaw & 0x7FF,
			Addr: addrRaw & (1<<34 - 1) &^ 0xF,
			Size: (int(sizeIdx%8) + 1) * FlitBytes,
		}
		if write {
			p.Cmd = CmdWrite
		} else {
			p.Cmd = CmdReadResp
		}
		tail := Tail{RTC: rtc & 0x1F, SEQ: seq & 0x7}
		words, err := Encode(&p, tail, nil)
		if err != nil {
			return false
		}
		got, gotTail, _, err := Decode(words)
		if err != nil {
			return false
		}
		return got.Cmd == p.Cmd && got.Tag == p.Tag && got.Addr == p.Addr &&
			got.Size == p.Size && gotTail.RTC == tail.RTC && gotTail.SEQ == tail.SEQ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
