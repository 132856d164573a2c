package storage

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"ivm/internal/value"
)

func TestReplRecordRoundTrip(t *testing.T) {
	// 'S' records carry the state codec's encoding verbatim.
	var enc bytes.Buffer
	if err := SaveAt(&enc, &State{
		Base:        sampleDB(),
		Program:     "p(X) :- q(X).",
		Hidden:      []string{"__aux1"},
		BaseVersion: 4,
		Strategy:    "counting",
		Semantics:   "set",
	}); err != nil {
		t.Fatalf("SaveAt: %v", err)
	}
	state := enc.Bytes()
	records := []ReplRecord{
		{Kind: ReplKindDelta, Epoch: 1, Version: 1, UnixNano: 123, Script: "+q(1)."},
		{Kind: ReplKindDelta, Epoch: 1, Version: 2, UnixNano: 456, Script: "", Keys: []string{"k1", "k2"}},
		{Kind: ReplKindDelta, Epoch: 2, Version: 3, Script: "+q(2). -q(1).", Keys: []string{"a"}},
		{Kind: ReplKindState, Epoch: 3, Version: 4, UnixNano: 789, State: state},
		{Kind: ReplKindHeartbeat, Epoch: 1<<63 + 7, Version: 4, UnixNano: 999},
	}
	var buf []byte
	var err error
	for _, rec := range records {
		buf, err = AppendReplRecord(buf, rec)
		if err != nil {
			t.Fatalf("AppendReplRecord(%+v): %v", rec, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range records {
		got, err := ReadReplRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Epoch != want.Epoch || got.Version != want.Version || got.UnixNano != want.UnixNano {
			t.Fatalf("record %d header: got %+v want %+v", i, got, want)
		}
		if got.Script != want.Script || strings.Join(got.Keys, ",") != strings.Join(want.Keys, ",") {
			t.Fatalf("record %d body: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.State, want.State) {
			t.Fatalf("record %d state: got %q want %q", i, got.State, want.State)
		}
	}
	if _, err := ReadReplRecord(r); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}

	st, err := LoadAt(bytes.NewReader(state))
	if err != nil {
		t.Fatalf("LoadAt: %v", err)
	}
	if st.Program != "p(X) :- q(X)." || st.BaseVersion != 4 || st.Base.Get("link").Count(value.T("b", "c")) != 3 ||
		len(st.Hidden) != 1 || st.Strategy != "counting" || st.Semantics != "set" {
		t.Fatalf("state round trip: %+v", st)
	}
}

func TestReplRecordRejectsDamage(t *testing.T) {
	rec := ReplRecord{Kind: ReplKindDelta, Version: 7, UnixNano: 1, Script: "+p(1).", Keys: []string{"k"}}
	buf, err := AppendReplRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}

	read := func(data []byte) error {
		_, err := ReadReplRecord(bufio.NewReader(bytes.NewReader(data)))
		return err
	}

	// Truncation anywhere inside a record is io.ErrUnexpectedEOF, never
	// a clean EOF and never a panic.
	for cut := 1; cut < len(buf); cut++ {
		if err := read(buf[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
	// A flipped bit anywhere fails the checksum (or the kind check).
	for i := range buf {
		mangled := append([]byte(nil), buf...)
		mangled[i] ^= 0x01
		if err := read(mangled); err == nil {
			t.Fatalf("flip at %d: damage accepted", i)
		}
	}
	// An unknown kind byte is rejected outright.
	if _, err := AppendReplRecord(nil, ReplRecord{Kind: 'Z'}); err == nil {
		t.Fatal("AppendReplRecord accepted unknown kind")
	}
}

func TestReplRecordPayloadBound(t *testing.T) {
	// A header promising more than maxReplPayload is rejected before any
	// allocation.
	buf, err := AppendReplRecord(nil, ReplRecord{Kind: ReplKindState, Version: 1, State: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	buf[25], buf[26], buf[27], buf[28] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadReplRecord(bufio.NewReader(bytes.NewReader(buf))); err == nil {
		t.Fatal("absurd length header accepted")
	}
}
