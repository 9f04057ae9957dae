// Engines: plug different compression algorithms into the CABLE
// framework.
//
// CABLE is a framework, not an algorithm (§II-B): it finds reference
// lines; the DIFF coding is delegated to a pluggable engine. This
// example first uses the engines directly on a crafted line (with and
// without a reference), then swaps the engine inside a full memory-link
// simulation, reproducing the Fig 20 ordering:
// ORACLE > LBE > gzip > CPACK128.
//
// Run with: go run ./examples/engines
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"cable"
)

func main() {
	// A reference line and a byte-shifted near-copy: word-aligned
	// engines struggle with the shift; the oracle does not.
	ref := make([]byte, 64)
	for i := range ref {
		ref[i] = byte(i*53 + 7)
	}
	line := make([]byte, 64)
	copy(line[1:], ref[:63]) // shifted by one byte
	binary.LittleEndian.PutUint32(line[40:], 0xABCD1234)

	fmt.Println("direct engine use on a byte-shifted near-copy (64B line):")
	for _, name := range []string{"cpack128", "lbe", "gzip-seeded", "oracle"} {
		e, err := cable.NewEngine(name)
		if err != nil {
			log.Fatal(err)
		}
		bare := cable.Compress(e, line, nil)
		seeded := cable.Compress(e, line, [][]byte{ref})
		dec, err := cable.Decompress(e, seeded, [][]byte{ref}, 64)
		if err != nil || !bytes.Equal(dec, line) {
			log.Fatalf("%s: round trip broken: %v", name, err)
		}
		fmt.Printf("  %-12s %4d bits alone, %4d bits with reference\n",
			name, bare.NBits, seeded.NBits)
	}

	fmt.Println("\nCABLE+engine on a full memory-link simulation (dealII):")
	for _, name := range []string{"cpack128", "gzip-seeded", "lbe", "oracle"} {
		cfg := cable.DefaultMemoryLinkConfig("dealII")
		cfg.AccessesPerProgram = 15000
		cfg.Chip.LLCBytes = 256 << 10
		cfg.Chip.L4Bytes = 1 << 20
		cfg.Chip.Cable.EngineName = name
		cfg.WithMeters = false
		res, err := cable.RunMemoryLink(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  CABLE+%-12s %5.2fx\n", name, res.Ratio("cable"))
	}
}
