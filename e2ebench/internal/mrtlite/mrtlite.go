// Package mrtlite frames an MRT-lite archive (the format cmd/topogen
// writes) into per-record byte ranges without decoding the BGP payloads,
// so the benchmark can feed exact record prefixes and release schedules to
// keplerd without depending on the repository's decoder.
//
//	file   := "MRTL" version(uint16)  record*
//	record := tsMicro(uint64) kind(uint8) peerAS(uint32) peerAddr(17 bytes)
//	          collectorLen(uint8) collector bodyLen(uint32) body
package mrtlite

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderLen is the size of the file header that precedes the records.
const HeaderLen = 6

// Kind values of the record header (3 is a session state change).
const (
	KindRIB    = 1
	KindUpdate = 2
)

// Rec locates one record: bytes [Off, End) of the archive, its stream
// timestamp in microseconds and its kind.
type Rec struct {
	Off, End int64
	TS       int64
	Kind     uint8
}

// Index frames every record of an archive.
func Index(b []byte) ([]Rec, error) {
	if len(b) < HeaderLen || string(b[:4]) != "MRTL" {
		return nil, errors.New("mrtlite: not an MRT-lite archive")
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != 1 {
		return nil, fmt.Errorf("mrtlite: unsupported version %d", v)
	}
	var out []Rec
	off := HeaderLen
	for off < len(b) {
		const fixed = 8 + 1 + 4 + 17
		if off+fixed+1 > len(b) {
			return nil, fmt.Errorf("mrtlite: truncated record at byte %d", off)
		}
		ts := int64(binary.BigEndian.Uint64(b[off:]))
		kind := b[off+8]
		nameLen := int(b[off+fixed])
		lenAt := off + fixed + 1 + nameLen
		if lenAt+4 > len(b) {
			return nil, fmt.Errorf("mrtlite: truncated record at byte %d", off)
		}
		end := lenAt + 4 + int(binary.BigEndian.Uint32(b[lenAt:]))
		if end > len(b) {
			return nil, fmt.Errorf("mrtlite: truncated body at byte %d", off)
		}
		out = append(out, Rec{Off: int64(off), End: int64(end), TS: ts, Kind: kind})
		off = end
	}
	return out, nil
}
