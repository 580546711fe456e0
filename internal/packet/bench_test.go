package packet

import "testing"

// Codec micro-benchmarks; run with
// go test -bench=. -benchmem ./internal/packet/...

// BenchmarkEncode measures serializing a max-size write request (9
// flits) into wire words. The words slice is the codec's one inherent
// allocation; allocs/op makes any regression beyond it visible.
func BenchmarkEncode(b *testing.B) {
	p := &Packet{Cmd: CmdWrite, Tag: 42, Addr: 0xABCDE0, Size: 128}
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i)
	}
	tail := Tail{RTC: 3, SEQ: 5, FRP: 17, RRP: 99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(p, tail, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures parsing and CRC-checking the same packet.
func BenchmarkDecode(b *testing.B) {
	p := &Packet{Cmd: CmdWrite, Tag: 42, Addr: 0xABCDE0, Size: 128}
	data := make([]byte, 128)
	words, err := Encode(p, Tail{}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Decode(words); err != nil {
			b.Fatal(err)
		}
	}
}
