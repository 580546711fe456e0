package trace

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hmcsim/internal/host"
	"hmcsim/internal/packet"
)

func TestRoundTrip(t *testing.T) {
	in := []host.Request{
		{Addr: 0x1234, Size: 16},
		{Addr: 0xDEADBE00, Size: 128, Write: true},
		{Addr: 0, Size: 64},
	}
	var b strings.Builder
	if err := Write(&b, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header\n\nR 0x40 32\n  \n# tail\nW 0x80 16\n"
	out, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Write || !out[1].Write {
		t.Fatalf("parsed %+v", out)
	}
}

func TestReadLowercaseOps(t *testing.T) {
	out, err := Read(strings.NewReader("r 0x0 16\nw 0x80 32\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Write || !out[1].Write {
		t.Fatalf("parsed %+v", out)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"X 0x0 16",       // unknown op
		"R zzz 16",       // bad address
		"R 0x0 17",       // bad size
		"R 0x0 0",        // zero size
		"R 0x0 256",      // oversized
		"R 0x0",          // missing field
		"R 0x0 16 extra", // extra field
		"R 0x0 sixteen",  // non-numeric size
	}
	for _, line := range bad {
		if _, err := Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("line %q parsed without error", line)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, sizeIdx []uint8, writes []bool) bool {
		n := len(addrs)
		if len(sizeIdx) < n {
			n = len(sizeIdx)
		}
		if len(writes) < n {
			n = len(writes)
		}
		in := make([]host.Request, n)
		for i := 0; i < n; i++ {
			in[i] = host.Request{
				Addr:  uint64(addrs[i]),
				Size:  16 * (int(sizeIdx[i]%8) + 1),
				Write: writes[i],
			}
		}
		var b strings.Builder
		if err := Write(&b, in); err != nil {
			return false
		}
		out, err := Read(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadFuncStreams(t *testing.T) {
	src := "R 0x40 32\nW 0x80 16\nR 0x100 128\n"
	want, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var got []host.Request
	if err := ReadFunc(strings.NewReader(src), func(r host.Request) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: streamed %+v, Read %+v", i, got[i], want[i])
		}
	}
}

func TestReadFuncEarlyStop(t *testing.T) {
	stop := errors.New("enough")
	src := "R 0x40 32\nW 0x80 16\nthis line would be a parse error\n"
	n := 0
	err := ReadFunc(strings.NewReader(src), func(host.Request) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	// The sentinel comes back unwrapped and the bad third line is never
	// reached.
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 2 {
		t.Fatalf("callback ran %d times, want 2", n)
	}
}

func TestReadFuncValidates(t *testing.T) {
	err := ReadFunc(strings.NewReader("R 0x0 17\n"), func(host.Request) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err = %v, want line-1 size error", err)
	}
}

// FuzzReadFunc feeds ReadFunc arbitrary trace text. It must never
// panic, every request it hands over must have a size the packet layer
// can carry, and a trace it accepts whole must read back unchanged
// after Write. The seed corpus lives in testdata/fuzz/FuzzReadFunc; go
// test runs it as an ordinary test. To fuzz further:
//
//	go test -run '^$' -fuzz '^FuzzReadFunc$' -fuzztime 30s ./internal/trace/
func FuzzReadFunc(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		var got []host.Request
		err := ReadFunc(strings.NewReader(src), func(r host.Request) error {
			if !packet.ValidSize(r.Size) {
				t.Fatalf("accepted request %+v with an invalid size", r)
			}
			got = append(got, r)
			return nil
		})
		if err != nil {
			return
		}
		var b strings.Builder
		if err := Write(&b, got); err != nil {
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("written trace %q does not read back: %v", b.String(), err)
		}
		if !slices.Equal(back, got) {
			t.Fatalf("trace %q read as %+v, written and read again as %+v", src, got, back)
		}
	})
}
