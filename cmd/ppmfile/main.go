// Command ppmfile is a small archival tool built on the library: it
// shards a file across n simulated disks with an SD code and rebuilds
// lost disks with PPM — the single-machine disk-plus-sector fault
// tolerance scenario that motivates SD/PMDS codes.
//
// Usage:
//
//	ppmfile encode -in data.bin -dir shards -n 8 -r 16 -m 2 -s 2
//	rm shards/disk_03.strip shards/disk_05.strip   # lose two disks
//	ppmfile decode -dir shards -out restored.bin
//	ppmfile verify -dir shards
//	ppmfile scrub -dir shards -repair          # locate & fix silent corruption
//
// Each disk j becomes one file disk_<j>.strip holding its sectors in
// stripe order; manifest.json records the geometry plus per-sector
// CRC-32C checksums. Encode and decode stream the file through the
// multi-stripe pipeline: one compiled plan serves every stripe and
// -depth stripes are in flight, so strip-file I/O overlaps the GF
// compute. Decode reads through a healer — bounded retries for
// transient strip faults, checksum verification, and demotion of
// unreadable or corrupt strips to erasures — and scrub is the
// rate-limitable background version of the same loop, rebuilding
// damage (missing disks included) in place with -repair. The -faults
// flag injects a deterministic fault schedule for testing into every
// strip read and write, rebuilt strips and write-backs included.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = runEncode(os.Args[2:])
	case "decode":
		err = runDecode(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "scrub":
		err = runScrub(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppmfile: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ppmfile encode -in FILE -dir DIR [-n 8 -r 16 -m 2 -s 2 -sector 4096 -depth 4]
  ppmfile decode -dir DIR -out FILE [-depth 4 -repair=true -retries 3 -op-timeout 0]
  ppmfile verify -dir DIR
  ppmfile scrub  -dir DIR [-repair -rate MiB/s -retries 3 -op-timeout 0]

decode and scrub retry transient strip faults (-retries attempts, each
bounded by -op-timeout), verify the manifest's CRC-32C sector checksums,
and demote unreadable or corrupt strips to erasures for re-decode;
decode -repair (the default) rewrites missing strip files, and
scrub -repair rebuilds damaged or missing strip files in place. verify,
and decode and scrub without -repair, never write a strip file. The
-faults flag (all commands but verify) injects a deterministic fault
schedule for chaos testing into every strip read and write.`)
	os.Exit(2)
}
