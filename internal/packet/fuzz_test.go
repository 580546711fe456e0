package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The seed corpora live in testdata/fuzz; go test runs them as ordinary
// tests. To fuzz one target further:
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s ./internal/packet/

// FuzzDecode feeds Decode arbitrary words, read little-endian from the
// input bytes. Decode must never panic, and whatever it accepts must
// encode again and decode to an equal packet, tail and payload.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		p, tail, data, err := Decode(words)
		if err != nil {
			return
		}
		again, err := Encode(p, tail, data)
		if err != nil {
			t.Fatalf("Decode accepted %v %+v, which Encode rejects: %v", p, tail, err)
		}
		p2, tail2, data2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded %v %+v does not decode: %v", p, tail, err)
		}
		if *p2 != *p || tail2 != tail || !bytes.Equal(data2, data) {
			t.Fatalf("decode, encode, decode: %+v %+v %x -> %+v %+v %x", *p, tail, data, *p2, tail2, data2)
		}
	})
}

// FuzzEncodeDecode builds packets from arbitrary field values. Every
// packet, tail and payload that Encode accepts must come back from
// Decode with every wire field equal. Size is a wire field of the
// commands whose code carries it (read and write requests, read
// responses); the others decode with Size 0. An empty payload means
// none was given, which encodes as zeros.
func FuzzEncodeDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, cmd uint8, tag uint16, addr uint64, size int, cube, rtc, seq, frp, rrp uint8, data []byte) {
		p := Packet{Cmd: Command(cmd), Tag: tag, Addr: addr, Size: size, Cube: cube}
		tail := Tail{RTC: rtc, SEQ: seq, FRP: frp, RRP: rrp}
		if len(data) == 0 {
			data = nil
		}
		words, err := Encode(&p, tail, data)
		if err != nil {
			return
		}
		if len(words) != 2*p.Flits() {
			t.Fatalf("%v encoded to %d words, want %d", &p, len(words), 2*p.Flits())
		}
		got, gotTail, gotData, err := Decode(words)
		if err != nil {
			t.Fatalf("Encode accepted %+v %+v, which does not decode: %v", p, tail, err)
		}
		want := p
		if p.Cmd.IsFlow() || p.Cmd == CmdWriteResp {
			want.Size = 0
		}
		if *got != want || gotTail != tail {
			t.Fatalf("round trip %+v %+v -> %+v %+v", want, tail, *got, gotTail)
		}
		if data == nil {
			data = make([]byte, p.DataFlits()*FlitBytes)
		}
		if !bytes.Equal(gotData, data) {
			t.Fatalf("payload %x -> %x", data, gotData)
		}
	})
}
