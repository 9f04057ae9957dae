package cable_test

import (
	"fmt"
	"log"

	"cable"
)

// ExampleNewLink walks one line pair through a CABLE link: the second
// fill is similar to the first and travels as a DIFF plus a reference
// pointer instead of 64 raw bytes.
func ExampleNewLink() {
	home, _ := cable.NewCache(cable.CacheConfig{Name: "l4", SizeBytes: 256 << 10, Ways: 16, LineSize: 64})
	remote, _ := cable.NewCache(cable.CacheConfig{Name: "llc", SizeBytes: 64 << 10, Ways: 8, LineSize: 64})
	he, re, err := cable.NewLink(cable.DefaultConfig(), home, remote)
	if err != nil {
		log.Fatal(err)
	}

	lineA := make([]byte, 64)
	for i := range lineA {
		lineA[i] = byte(i*37 + 11)
	}
	lineB := append([]byte(nil), lineA...)
	lineB[24] ^= 0xFF // one edited byte

	home.Insert(0x1000, lineA, cable.Shared)
	home.Insert(0x09A7, lineB, cable.Shared)

	for _, addr := range []uint64{0x1000, 0x09A7} {
		idx := remote.IndexOf(addr)
		way := remote.VictimWay(idx)
		p, _, _ := he.EncodeFill(addr, cable.Shared, way)
		data, _ := re.DecodeFill(p)
		remote.InsertAt(addr, data, cable.Shared, way)
		re.OnFillInstalled(cable.LineID{Index: idx, Way: way}, data, cable.Shared)
		fmt.Printf("refs=%d\n", len(p.Refs))
	}
	// Output:
	// refs=0
	// refs=1
}

// ExampleNewEngine compresses a line directly with a pluggable engine.
func ExampleNewEngine() {
	e, _ := cable.NewEngine("lbe")
	zero := make([]byte, 64)
	enc := cable.Compress(e, zero, nil)
	dec, _ := cable.Decompress(e, enc, nil, 64)
	fmt.Printf("%d bits, lossless=%v\n", enc.NBits, string(dec) == string(zero))
	// Output:
	// 6 bits, lossless=true
}
