package packet

import (
	"testing"

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
