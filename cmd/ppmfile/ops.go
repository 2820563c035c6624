package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/fault"
	"ppm/internal/pipeline"
	"ppm/internal/stripe"
)

// wrapFaults parses a -faults spec and wraps the store with the
// resulting injection schedule; an empty spec is a no-op. The schedule
// is printed so a failing chaos run can be replayed exactly.
func wrapFaults(store fault.Store, spec string) (fault.Store, *fault.Schedule, error) {
	if spec == "" {
		return store, nil, nil
	}
	sched, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing -faults: %w", err)
	}
	fmt.Printf("fault injection active: %s\n", sched)
	return fault.NewFaultyStore(store, sched), sched, nil
}

// retryPolicy builds the strip-read retry policy from the shared
// -retries / -op-timeout flags.
func retryPolicy(retries int, opTimeout time.Duration) fault.Policy {
	p := fault.DefaultPolicy()
	p.MaxAttempts = retries
	p.OpTimeout = opTimeout
	return p
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	dir := fs.String("dir", "", "output shard directory")
	n := fs.Int("n", 8, "disks")
	r := fs.Int("r", 16, "rows per strip")
	m := fs.Int("m", 2, "coding disks")
	s := fs.Int("s", 2, "coding sectors")
	sector := fs.Int("sector", 4096, "sector size in bytes")
	depth := fs.Int("depth", pipeline.DefaultDepth, "stripes in flight (pipeline depth)")
	faults := fs.String("faults", "", "fault-injection spec (testing; see internal/fault.ParseSpec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *dir == "" {
		return fmt.Errorf("encode needs -in and -dir")
	}
	if *sector < 4 || *sector%4 != 0 {
		return fmt.Errorf("sector size must be a positive multiple of 4")
	}

	sd, err := codes.NewSD(*n, *r, *m, *s)
	if err != nil {
		return err
	}
	inFile, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer inFile.Close()
	info, err := inFile.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	dataPositions := codes.DataPositions(sd)
	payloadPerStripe := int64(len(dataPositions)) * int64(*sector)
	stripes := int((size + payloadPerStripe - 1) / payloadPerStripe)
	if stripes == 0 {
		stripes = 1
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	mf := manifest{
		N: *n, R: *r, M: *m, S: *s,
		Word:       sd.Field().W(),
		Coeffs:     sd.Coefficients(),
		SectorSize: *sector,
		Stripes:    stripes,
		FileSize:   size,
		FileName:   filepath.Base(*in),
	}
	if err := writeManifest(*dir, mf); err != nil {
		return err
	}
	ds, err := openStore(*dir, mf, true)
	if err != nil {
		return err
	}
	defer ds.Close()
	store, _, err := wrapFaults(ds, *faults)
	if err != nil {
		return err
	}

	// Stream the file through the pipeline: the encode plan is compiled
	// once, file reads for stripe i+1 overlap the encode of stripe i,
	// and -depth stripes are in flight against the strip store.
	eng, err := pipeline.New(sd, codes.EncodingScenario(sd), *sector, pipeline.Config{Depth: *depth})
	if err != nil {
		return err
	}
	defer eng.Close()
	src := &payloadSource{r: inFile, dataPos: dataPositions, stripes: stripes}
	sink := &storeSink{store: store, buf: make([]byte, ds.StripBytes())}
	if _, err := eng.Run(src, sink); err != nil {
		return err
	}
	// Rewrite the manifest with the per-sector checksums the drain stage
	// recorded: from here on, reads can tell silent corruption from
	// clean data and demote it to an erasure.
	mf.ChecksumAlgo = checksumAlgo
	mf.Checksums = sink.sums
	if err := finishEncode(*dir, ds, mf); err != nil {
		return err
	}
	fmt.Printf("encoded %d bytes as %s: %d stripes x %d disks (%d-byte sectors), tolerates %d disk + %d sector failures per stripe; %s sector checksums recorded\n",
		size, sd.Name(), stripes, *n, *sector, *m, *s, checksumAlgo)
	return nil
}

// finishEncode closes the strip files and only then writes the final,
// checksummed manifest, so the manifest never vouches for a strip that
// failed to close.
func finishEncode(dir string, ds *diskStore, mf manifest) error {
	if err := ds.Close(); err != nil {
		return err
	}
	if err := writeManifest(dir, mf); err != nil {
		return fmt.Errorf("recording checksums: %w", err)
	}
	return nil
}

func runDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	out := fs.String("out", "", "output file (default: the original name in the current directory)")
	depth := fs.Int("depth", pipeline.DefaultDepth, "stripes in flight (pipeline depth)")
	repair := fs.Bool("repair", true, "rewrite missing strip files after recovery")
	retries := fs.Int("retries", 3, "max read attempts per strip before demoting it to an erasure")
	opTimeout := fs.Duration("op-timeout", 0, "per-attempt strip read deadline (0 = unbounded); a hung strip is demoted at the deadline")
	faults := fs.String("faults", "", "fault-injection spec (testing; see internal/fault.ParseSpec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("decode needs -dir")
	}
	mf, err := readManifest(*dir)
	if err != nil {
		return err
	}
	// Before codeFromManifest: openStore bounds n and r by the strip files.
	ds, err := openStore(*dir, mf, false)
	if err != nil {
		return err
	}
	defer ds.Close()
	sd, err := codeFromManifest(mf)
	if err != nil {
		return err
	}

	missing := ds.missingDisks()
	if len(missing) > mf.M {
		return fmt.Errorf("%d disks missing (%v); %s tolerates only %d", len(missing), missing, sd.Name(), mf.M)
	}
	var sc codes.Scenario
	if len(missing) > 0 {
		var faulty []int
		for i := 0; i < mf.R; i++ {
			for _, j := range missing {
				faulty = append(faulty, i*mf.N+j)
			}
		}
		sc, err = codes.NewScenario(sd, faulty)
		if err != nil {
			return err
		}
		fmt.Printf("recovering disks %v with PPM\n", missing)
	}

	if *out == "" {
		*out = mf.FileName
	}
	outFile, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer outFile.Close()

	// All stripes fail identically (whole disks), so the pipeline's
	// once-compiled plan serves every stripe; strip reads for stripe i+1
	// overlap the recovery of stripe i. An empty scenario (nothing
	// missing) runs the same pipeline as a pure extract pass.
	eng, err := pipeline.New(sd, sc, mf.SectorSize, pipeline.Config{Depth: *depth})
	if err != nil {
		return err
	}
	defer eng.Close()
	store, _, err := wrapFaults(ds, *faults)
	if err != nil {
		return err
	}
	// The sink writes the missing disks' rebuilt strips through the
	// store, which creates their files on the first write.
	sink := &restoreSink{
		out:       outFile,
		dataPos:   codes.DataPositions(sd),
		remaining: mf.FileSize,
		store:     store,
		buf:       make([]byte, ds.StripBytes()),
	}
	if *repair {
		sink.repair = missing
	}
	// The fill stage reads through a Healer: bounded retries around
	// transient strip faults, per-sector checksum verification, and
	// demotion to erasure (plus an inline re-decode) for anything that
	// cannot be read clean — the baseline missing disks stay with the
	// engine's once-compiled plan.
	healer := &fault.Healer{
		Code:     sd,
		Store:    store,
		Sums:     mf.Checksums,
		Baseline: sc,
		Policy:   retryPolicy(*retries, *opTimeout),
		Logf: func(format string, a ...any) {
			fmt.Printf("degraded read: "+format+"\n", a...)
		},
	}
	src := &healSource{h: healer, stripes: mf.Stripes, ctx: context.Background()}
	if _, err := eng.Run(src, sink); err != nil {
		return err
	}
	if sink.remaining != 0 {
		return fmt.Errorf("short archive: %d bytes unaccounted for", sink.remaining)
	}
	// Close what was written before reporting it: a file that fails to
	// close may not hold its bytes. The deferred Closes, there for the
	// error paths, then fail harmlessly.
	if err := errors.Join(outFile.Close(), ds.Close()); err != nil {
		return err
	}
	fmt.Printf("restored %q (%d bytes)\n", *out, mf.FileSize)
	if hs := healer.Stats; hs.Retries+hs.DemotedStrips+hs.CorruptSectors > 0 {
		fmt.Printf("degraded read summary: %d retries, %d strips demoted, %d corrupt sectors, %d stripes healed\n",
			hs.Retries, hs.DemotedStrips, hs.CorruptSectors, hs.Healed)
	}
	if len(sink.repair) > 0 {
		fmt.Printf("repaired %d strip file(s)\n", len(sink.repair))
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("verify needs -dir")
	}
	mf, err := readManifest(*dir)
	if err != nil {
		return err
	}
	// Before codeFromManifest: openStore bounds n and r by the strip files.
	ds, err := openStore(*dir, mf, false)
	if err != nil {
		return err
	}
	defer ds.Close()
	sd, err := codeFromManifest(mf)
	if err != nil {
		return err
	}
	if missing := ds.missingDisks(); len(missing) > 0 {
		return fmt.Errorf("disks %v missing; run decode to repair first", missing)
	}
	st, err := stripe.New(mf.N, mf.R, mf.SectorSize)
	if err != nil {
		return err
	}
	buf := make([]byte, ds.StripBytes())
	checksummed := 0
	for idx := 0; idx < mf.Stripes; idx++ {
		if err := fault.LoadStripe(ds, idx, st, buf); err != nil {
			return err
		}
		// Checksummed archives verify on CRC-32C alone: the sums were
		// recorded over the encoded sectors, so they pin parity as well
		// as data, localise damage to a sector, and cost zero decode
		// work — no GF products, no plan. Only pre-checksum archives
		// fall back to the full parity-check decode.
		if idx < len(mf.Checksums) && mf.Checksums[idx] != nil {
			if bad := fault.VerifyStripe(st, mf.Checksums[idx]); len(bad) > 0 {
				return fmt.Errorf("stripe %d fails checksum verification at sector(s) %v; run scrub -repair", idx, bad)
			}
			checksummed++
			continue
		}
		ok, err := decode.Verify(sd, st)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("stripe %d fails the parity check (silent corruption)", idx)
		}
	}
	if checksummed == mf.Stripes {
		fmt.Printf("all %d stripes verify clean under %s (checksum-only, no decode)\n", mf.Stripes, sd.Name())
	} else {
		fmt.Printf("all %d stripes verify clean under %s (%d checksummed, %d parity-checked)\n",
			mf.Stripes, sd.Name(), checksummed, mf.Stripes-checksummed)
	}
	return nil
}

// runScrub is the self-healing background pass: it walks every stripe
// looking for silent corruption, missing disks and unreadable strips,
// and (with -repair) rebuilds the damage in place.
//
// Archives with recorded checksums take the checksum path: each stripe
// is degraded-read through a fault.Healer — bounded retries, checksum
// verification, erasure demotion and an inline re-decode — so any
// damage the code tolerates (including whole missing disks) leaves the
// healer as correct bytes ready to write back. Pre-checksum archives
// fall back to the parity-syndrome scrub, which can localise and fix
// single-sector damage but cannot rebuild erasures.
//
// -rate bounds the read bandwidth (MiB/s) so a background scrub does
// not starve foreground traffic.
func runScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	repair := fs.Bool("repair", false, "repair located corruption (and rebuild missing disks) in place")
	rate := fs.Float64("rate", 0, "read-rate limit in MiB/s (0 = unlimited)")
	retries := fs.Int("retries", 3, "max read attempts per strip before demoting it to an erasure")
	opTimeout := fs.Duration("op-timeout", 0, "per-attempt strip read deadline (0 = unbounded)")
	faults := fs.String("faults", "", "fault-injection spec (testing; see internal/fault.ParseSpec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("scrub needs -dir")
	}
	mf, err := readManifest(*dir)
	if err != nil {
		return err
	}
	// Before codeFromManifest: openStore bounds n and r by the strip files.
	ds, err := openStore(*dir, mf, false)
	if err != nil {
		return err
	}
	defer ds.Close()
	sd, err := codeFromManifest(mf)
	if err != nil {
		return err
	}
	missing := ds.missingDisks()
	store, _, err := wrapFaults(ds, *faults)
	if err != nil {
		return err
	}
	if len(mf.Checksums) == 0 {
		// Pre-checksum archive: parity-syndrome scrub only.
		if len(missing) > 0 {
			return fmt.Errorf("disks %v missing; this archive has no checksums, so scrub cannot rebuild them — run decode", missing)
		}
		err = scrubSyndrome(mf, sd, store, *repair)
	} else {
		err = scrubChecksummed(mf, sd, missing, store, scrubConfig{
			repair: *repair, rateMiB: *rate,
			policy: retryPolicy(*retries, *opTimeout),
		})
	}
	if err != nil {
		return err
	}
	// A strip written back through a handle that fails to close may not
	// hold its bytes.
	return ds.Close()
}

type scrubConfig struct {
	repair  bool
	rateMiB float64
	policy  fault.Policy
}

// rateLimiter paces a scan to a byte rate with simple catch-up sleeps.
type rateLimiter struct {
	bytesPerSec float64
	start       time.Time
	bytes       int64
}

func (l *rateLimiter) pace(n int) {
	if l.bytesPerSec <= 0 {
		return
	}
	if l.start.IsZero() {
		l.start = time.Now()
	}
	l.bytes += int64(n)
	budget := time.Duration(float64(l.bytes) / l.bytesPerSec * float64(time.Second))
	if sleep := budget - time.Since(l.start); sleep > 0 {
		time.Sleep(sleep)
	}
}

// scrubChecksummed is the checksum-era scrub+rebuild loop. missing
// lists the disks whose strip files were absent.
func scrubChecksummed(mf manifest, sd *codes.SD, missing []int, store fault.Store, cfg scrubConfig) error {
	if len(missing) > mf.M {
		return fmt.Errorf("%d disks missing (%v); %s tolerates only %d", len(missing), missing, sd.Name(), mf.M)
	}
	if len(missing) > 0 {
		fmt.Printf("scrub: disks %v missing", missing)
		if cfg.repair {
			fmt.Printf("; rebuilding")
		}
		fmt.Println()
	}
	// An empty baseline makes the healer treat *every* unreadable strip
	// (missing disks included) as damage to demote and re-decode — the
	// scrub wants fully healed stripes to write back, not zeroed
	// placeholders for a downstream decoder.
	healer := &fault.Healer{
		Code:   sd,
		Store:  store,
		Sums:   mf.Checksums,
		Policy: cfg.policy,
		Logf: func(format string, a ...any) {
			fmt.Printf("scrub: "+format+"\n", a...)
		},
	}
	st, err := stripe.New(mf.N, mf.R, mf.SectorSize)
	if err != nil {
		return err
	}
	limiter := &rateLimiter{bytesPerSec: cfg.rateMiB * (1 << 20)}
	buf := make([]byte, store.StripBytes())
	stripeBytes := mf.N * len(buf)
	repaired := 0
	ctx := context.Background()
	var damaged []int
	for idx := 0; idx < mf.Stripes; idx++ {
		if err := healer.ReadStripe(ctx, idx, st); err != nil {
			return fmt.Errorf("scrub: stripe %d is unrecoverable: %w", idx, err)
		}
		// Only the damaged strips are written back: rewriting a clean
		// strip could only damage it.
		damaged = healer.DamagedDisks(damaged[:0])
		if len(damaged) > 0 && cfg.repair {
			for _, j := range damaged {
				if err := store.WriteStrip(idx, j, fault.GatherStrip(buf, st, j)); err != nil {
					return fmt.Errorf("scrub: writing healed stripe %d disk %d back: %w", idx, j, err)
				}
			}
			repaired++
		}
		limiter.pace(stripeBytes)
	}
	hs := healer.Stats
	fmt.Printf("scrub complete: %d stripes scanned, %d retries, %d strips demoted, %d corrupt sectors, %d stripes healed",
		hs.Stripes, hs.Retries, hs.DemotedStrips, hs.CorruptSectors, hs.Healed)
	if cfg.repair {
		fmt.Printf(", %d written back", repaired)
	}
	fmt.Println()
	if hs.Healed > 0 && !cfg.repair {
		fmt.Println("damage found; re-run with -repair to write the healed stripes back")
	}
	return nil
}

// scrubSyndrome is the legacy parity-syndrome scrub for archives
// encoded before per-sector checksums existed.
func scrubSyndrome(mf manifest, sd *codes.SD, store fault.Store, repair bool) error {
	st, err := stripe.New(mf.N, mf.R, mf.SectorSize)
	if err != nil {
		return err
	}
	buf := make([]byte, store.StripBytes())
	clean, located, ambiguous := 0, 0, 0
	for idx := 0; idx < mf.Stripes; idx++ {
		if err := fault.LoadStripe(store, idx, st, buf); err != nil {
			return err
		}
		res, err := decode.Scrub(sd, st)
		if err != nil {
			return err
		}
		switch {
		case res.Clean:
			clean++
		case res.Located:
			located++
			fmt.Printf("stripe %d: silent corruption located at sector %d (row %d, disk %d)\n",
				idx, res.Sector, res.Sector/mf.N, res.Sector%mf.N)
			if repair {
				if _, err := decode.ScrubAndRepair(sd, st, decode.Options{}); err != nil {
					return err
				}
				// Only the located sector's strip changed.
				disk := res.Sector % mf.N
				if err := store.WriteStrip(idx, disk, fault.GatherStrip(buf, st, disk)); err != nil {
					return err
				}
				fmt.Printf("stripe %d: repaired and written back\n", idx)
			}
		default:
			ambiguous++
			fmt.Printf("stripe %d: corruption detected but not localisable (multiple sectors?)\n", idx)
		}
	}
	fmt.Printf("scrub complete: %d clean, %d located, %d ambiguous of %d stripes\n",
		clean, located, ambiguous, mf.Stripes)
	if ambiguous > 0 {
		return fmt.Errorf("%d stripe(s) need manual attention", ambiguous)
	}
	return nil
}
