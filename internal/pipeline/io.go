package pipeline

import (
	"fmt"
	"io"
	"sync/atomic"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// Result summarises one stream run.
type Result struct {
	// Stripes is the number of stripes drained to the sink.
	Stripes int
	// Bytes is the payload moved: bytes consumed from the reader on
	// encode, bytes written to the writer on decode.
	Bytes int64
}

// The stream wire format is the obvious one: each stripe is written as
// its n*r sectors in row-major (global index) order, so a stream is a
// sequence of fixed-size stripe images. Encode consumes raw payload
// bytes and emits images (data laid into the data positions in index
// order, zero-padded tail); decode consumes images and emits the
// payload back.

// streamReader reads a stream in order: through r, or, when r is nil,
// through at from off on. A source over an io.ReaderAt builds one per
// stripe on its own stack, so concurrent fills share nothing and
// allocate nothing.
type streamReader struct {
	r   io.Reader
	at  io.ReaderAt
	off int64
}

// readFull fills p as io.ReadFull does: io.EOF when the stream had
// nothing left, io.ErrUnexpectedEOF when it ended inside p.
func (sr *streamReader) readFull(p []byte) (int, error) {
	if sr.r != nil {
		return io.ReadFull(sr.r, p)
	}
	n, err := sr.at.ReadAt(p, sr.off)
	sr.off += int64(n)
	switch {
	case n == len(p):
		return n, nil
	case err == nil || (err == io.EOF && n > 0):
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

// readerSource lays payload bytes from in into the data sectors of the
// slab, zero-padding the final partial stripe itself: the slab still
// holds an earlier stripe. The parity sectors are the encode's
// erasures, so their old bytes are overwritten.
type readerSource struct {
	in   streamReader
	data []int
	eof  bool
	n    int64
}

func (s *readerSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if s.eof {
		return nil, nil
	}
	filled := 0
	for _, pos := range s.data {
		sec := slab.Sector(pos)
		if s.eof {
			clear(sec)
			continue
		}
		n, err := s.in.readFull(sec)
		s.n += int64(n)
		filled += n
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			s.eof = true
			clear(sec[n:])
		default:
			return nil, err
		}
	}
	if filled == 0 {
		return nil, nil // the stream ended exactly on a stripe boundary
	}
	return slab, nil
}

// atReader is a stream reader that is also an io.ReaderAt and an
// io.Seeker, with the offset it stood at when the run began. Its
// sources read stripe idx with ReadAt at a fixed offset from there,
// through the sequential sources' fill code, so they are
// ConcurrentSources and the shards fill the stripes they compute. They
// never call the reader's Read. They count the bytes they consume once
// per stripe, and finish then moves the reader past them with Seek,
// where a sequential read would have left it.
type atReader struct {
	r    io.ReaderAt
	seek io.Seeker
	base int64
	n    atomic.Int64
}

// newAtReader returns r's positioned ReaderAt form, or nil when r is
// not an io.ReaderAt and an io.Seeker or cannot report its offset: such
// a stream fills sequentially.
func newAtReader(r io.Reader) *atReader {
	ra, ok := r.(io.ReaderAt)
	seek, ok2 := r.(io.Seeker)
	if !ok || !ok2 {
		return nil
	}
	base, err := seek.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil
	}
	return &atReader{r: ra, seek: seek, base: base}
}

// ConcurrentNext declares the sources built on an atReader
// ConcurrentSources.
func (a *atReader) ConcurrentNext() {}

// stripeAt returns a reader of stripe idx, when every stripe occupies
// size bytes.
func (a *atReader) stripeAt(idx int, size int64) streamReader {
	return streamReader{at: a.r, off: a.base + int64(idx)*size}
}

// finish moves the reader past the bytes the run consumed. The run's
// own error, if any, takes precedence.
func (a *atReader) finish(runErr error) error {
	if _, err := a.seek.Seek(a.base+a.n.Load(), io.SeekStart); err != nil && runErr == nil {
		return fmt.Errorf("pipeline: positioning the reader after the stream: %w", err)
	}
	return runErr
}

// payloadAtSource is readerSource over an atReader's stripes.
type payloadAtSource struct {
	*atReader
	data []int
}

func (s *payloadAtSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	rs := readerSource{in: s.stripeAt(idx, int64(len(s.data)*slab.SectorSize())), data: s.data}
	st, err := rs.Next(idx, slab)
	s.n.Add(rs.n)
	return st, err
}

// imageAtSource is imageSource over an atReader's stripes.
type imageAtSource struct {
	*atReader
}

func (s *imageAtSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	is := imageSource{in: s.stripeAt(idx, int64(slab.TotalBytes()))}
	start := is.in.off
	st, err := is.Next(idx, slab)
	s.n.Add(is.in.off - start)
	return st, err
}

// imageSink writes full stripe images.
type imageSink struct {
	w io.Writer
}

func (k *imageSink) Drain(_ int, st *stripe.Stripe) error {
	for i := 0; i < st.TotalSectors(); i++ {
		if _, err := k.w.Write(st.Sector(i)); err != nil {
			return err
		}
	}
	return nil
}

// imageSource reads full stripe images; a clean EOF on an image
// boundary ends the stream.
type imageSource struct {
	in streamReader
}

func (s *imageSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	for i := 0; i < slab.TotalSectors(); i++ {
		n, err := s.in.readFull(slab.Sector(i))
		switch {
		case err == nil:
		case i == 0 && n == 0 && err == io.EOF:
			return nil, nil
		default:
			return nil, fmt.Errorf("truncated stripe image: %w", err)
		}
	}
	return slab, nil
}

// dataSink writes the data sectors back out, trimmed to the remaining
// payload size (remaining < 0 writes every data byte, padding
// included). Once the payload is satisfied it returns Stop, so the
// engine stops filling and decoding stripes whose output would be
// trimmed entirely — a short payload over a long stream decodes only
// ⌈payload/stripe⌉ stripes instead of the whole stream.
type dataSink struct {
	w         io.Writer
	data      []int
	remaining int64
	n         int64
}

func (k *dataSink) Drain(_ int, st *stripe.Stripe) error {
	for _, pos := range k.data {
		if k.remaining == 0 {
			return Stop
		}
		sec := st.Sector(pos)
		if k.remaining > 0 && int64(len(sec)) > k.remaining {
			sec = sec[:k.remaining]
		}
		n, err := k.w.Write(sec)
		k.n += int64(n)
		if k.remaining > 0 {
			k.remaining -= int64(n)
		}
		if err != nil {
			return err
		}
	}
	if k.remaining == 0 {
		return Stop
	}
	return nil
}

// checkStreamSector rejects the sector sizes New accepts but a stream
// cannot use: size 0 builds a slab-less engine, and the stream sources
// fill slabs.
func checkStreamSector(sectorSize int) error {
	if sectorSize <= 0 {
		return fmt.Errorf("pipeline: stream sector size %d must be positive", sectorSize)
	}
	return nil
}

// EncodeStream reads payload bytes from src, encodes them stripe by
// stripe through the pipeline (plan compiled once, Depth stripes in
// flight), and writes full stripe images to dst. The final stripe is
// zero-padded; Result.Bytes reports the payload consumed, which the
// caller needs to trim the padding after a later DecodeStream. When
// src is also an io.ReaderAt and an io.Seeker (a bytes.Reader, an
// os.File, or any type whose method set has both), src.Read is never
// called: the compute shards read their own stripes' payload with
// ReadAt at its offset from src's current position, and the run moves
// src past the bytes it consumed with Seek.
func EncodeStream(c codes.Code, dst io.Writer, src io.Reader, sectorSize int, cfg Config) (Result, error) {
	if err := checkStreamSector(sectorSize); err != nil {
		return Result{}, err
	}
	e, err := New(c, codes.EncodingScenario(c), sectorSize, cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	data := codes.DataPositions(c)
	sink := &imageSink{w: dst}
	if ar := newAtReader(src); ar != nil {
		n, err := e.Run(&payloadAtSource{atReader: ar, data: data}, sink)
		return Result{Stripes: n, Bytes: ar.n.Load()}, ar.finish(err)
	}
	rs := &readerSource{in: streamReader{r: src}, data: data}
	n, err := e.Run(rs, sink)
	return Result{Stripes: n, Bytes: rs.n}, err
}

// DecodeStream reads stripe images from src, recovers the scenario's
// faulty sectors in each (bytes at faulty positions in the stream are
// ignored and reconstructed), and writes the payload's data bytes to
// dst. payload is the original byte count from the matching
// EncodeStream, used to trim the final stripe's zero padding; pass a
// negative payload to emit every data byte, padding included. Decoding
// stops once the payload is satisfied: a short payload over a long
// stream reads and decodes only ⌈payload/stripe payload⌉ stripes. An
// empty scenario turns DecodeStream into an overlapped extract of an
// intact stream. A src that is also an io.ReaderAt and an io.Seeker is
// read by the compute shards with ReadAt, never through Read, and
// positioned with Seek, as EncodeStream reads one.
func DecodeStream(c codes.Code, dst io.Writer, src io.Reader, sc codes.Scenario, payload int64, sectorSize int, cfg Config) (Result, error) {
	if err := checkStreamSector(sectorSize); err != nil {
		return Result{}, err
	}
	e, err := New(c, sc, sectorSize, cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	ds := &dataSink{w: dst, data: codes.DataPositions(c), remaining: payload}
	var n int
	if ar := newAtReader(src); ar != nil {
		n, err = e.Run(&imageAtSource{atReader: ar}, ds)
		err = ar.finish(err)
	} else {
		n, err = e.Run(&imageSource{in: streamReader{r: src}}, ds)
	}
	if err == nil && payload > 0 && ds.remaining > 0 {
		return Result{Stripes: n, Bytes: ds.n},
			fmt.Errorf("pipeline: stream ended %d bytes short of the %d-byte payload", ds.remaining, payload)
	}
	return Result{Stripes: n, Bytes: ds.n}, err
}
