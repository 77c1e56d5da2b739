package mrtlite

import (
	"encoding/binary"
	"testing"
)

func record(ts uint64, kind byte, collector string, body int) []byte {
	b := binary.BigEndian.AppendUint64(nil, ts)
	b = append(b, kind)
	b = append(b, make([]byte, 4+17)...)
	b = append(b, byte(len(collector)))
	b = append(b, collector...)
	b = binary.BigEndian.AppendUint32(b, uint32(body))
	return append(b, make([]byte, body)...)
}

func TestIndexFramesRecords(t *testing.T) {
	file := []byte("MRTL\x00\x01")
	r1 := record(10, KindRIB, "rrc00", 23)
	r2 := record(60_000_001, KindUpdate, "", 2)
	file = append(append(file, r1...), r2...)
	recs, err := Index(file)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rec{
		{Off: 6, End: int64(6 + len(r1)), TS: 10, Kind: KindRIB},
		{Off: int64(6 + len(r1)), End: int64(len(file)), TS: 60_000_001, Kind: KindUpdate},
	}
	if len(recs) != 2 || recs[0] != want[0] || recs[1] != want[1] {
		t.Fatalf("Index = %+v, want %+v", recs, want)
	}
	if _, err := Index(file[:len(file)-1]); err == nil {
		t.Fatal("truncated archive indexed without error")
	}
}
