package pipeline

import (
	"fmt"
	"io"

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

// readerSource lays payload bytes from r into the data sectors of the
// slab, zero-padding the final partial stripe itself: the slab still
// holds an earlier stripe. The parity sectors are the encode's
// erasures, so their old bytes are overwritten.
type readerSource struct {
	r    io.Reader
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
		n, err := io.ReadFull(s.r, sec)
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
	r io.Reader
}

func (s *imageSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	for i := 0; i < slab.TotalSectors(); i++ {
		n, err := io.ReadFull(s.r, slab.Sector(i))
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
// caller needs to trim the padding after a later DecodeStream.
func EncodeStream(c codes.Code, dst io.Writer, src io.Reader, sectorSize int, cfg Config) (Result, error) {
	if err := checkStreamSector(sectorSize); err != nil {
		return Result{}, err
	}
	e, err := New(c, codes.EncodingScenario(c), sectorSize, cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	rs := &readerSource{r: src, data: codes.DataPositions(c)}
	n, err := e.Run(rs, &imageSink{w: dst})
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
// intact stream.
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
	n, err := e.Run(&imageSource{r: src}, ds)
	if err == nil && payload > 0 && ds.remaining > 0 {
		return Result{Stripes: n, Bytes: ds.n},
			fmt.Errorf("pipeline: stream ended %d bytes short of the %d-byte payload", ds.remaining, payload)
	}
	return Result{Stripes: n, Bytes: ds.n}, err
}
