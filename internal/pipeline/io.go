package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"unsafe"

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

// readerSource lays the input from in into the slab's sectors at data,
// in order: a payload into the code's data positions, an image into
// every position. The slab still holds an earlier stripe, so a short
// final payload stripe is zero-padded here, and a short final image is
// a truncated one; with carry set, more input may follow, and a short
// final stripe moves into carry instead. A stream that ends on a stripe
// boundary leaves the slab untouched. The sectors outside data are the
// encode's erasures, so their old bytes are overwritten.
type readerSource struct {
	in    streamReader
	data  []int
	image bool
	carry *carry
	eof   bool
	n     int64
}

func (s *readerSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if s.eof {
		return nil, nil
	}
	for k, pos := range s.data {
		sec := slab.Sector(pos)
		n, err := s.in.readFull(sec)
		s.n += int64(n)
		switch err {
		case nil:
			continue
		case io.EOF, io.ErrUnexpectedEOF:
		default:
			return nil, err
		}
		s.eof = true
		switch filled := k*len(sec) + n; {
		case filled == 0:
			return nil, nil
		case s.carry != nil:
			s.carry.take(slab, filled)
			return nil, nil
		case s.image:
			return nil, fmt.Errorf("truncated stripe image: %w", io.ErrUnexpectedEOF)
		}
		clear(sec[n:])
		for _, p := range s.data[k+1:] {
			clear(slab.Sector(p))
		}
		return slab, nil
	}
	return slab, nil
}

// atReader is a stream reader that is also an io.ReaderAt and an
// io.Seeker, with the offset it stood at when the run began, where
// stripe first starts. Its sources read stripe idx with ReadAt at a
// fixed offset from there, through readerSource's fill code, so they
// are ConcurrentSources and the shards fill the stripes they compute.
// They never call the reader's Read. They count the bytes they consume
// once per stripe, and finish then moves the reader past them with
// Seek, where a sequential read would have left it.
type atReader struct {
	r     io.ReaderAt
	seek  io.Seeker
	base  int64
	first int
	n     atomic.Int64
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
	return streamReader{at: a.r, off: a.base + int64(idx-a.first)*size}
}

// finish moves the reader past the bytes the run consumed. The run's
// own error, if any, takes precedence.
func (a *atReader) finish(runErr error) error {
	if _, err := a.seek.Seek(a.base+a.n.Load(), io.SeekStart); err != nil && runErr == nil {
		return fmt.Errorf("pipeline: positioning the reader after the stream: %w", err)
	}
	return runErr
}

// atSource is rs over an atReader's stripes: each Next fills its stripe
// through its own copy of rs.
type atSource struct {
	*atReader
	rs readerSource
}

func (s *atSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	rs := s.rs
	rs.in = s.stripeAt(idx, int64(len(rs.data)*slab.SectorSize()))
	st, err := rs.Next(idx, slab)
	s.n.Add(rs.n)
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

// carry holds the first len input bytes of a stripe whose rest has not
// arrived, laid into the sectors at data of a slab from the slab pool:
// a push that ends inside a stripe, or a pull whose reader does, leaves
// them for the next push or pull to complete.
type carry struct {
	data         []int
	n, r, sector int
	st           *stripe.Stripe
	len          int
}

// space returns the rest of the sector the next input byte goes into,
// or nil when the carry holds a whole stripe.
func (c *carry) space() []byte {
	if c.st == nil {
		st, err := takeSlab(c.n, c.r, c.sector)
		if err != nil {
			panic(err) // New took slabs of this geometry
		}
		c.st = st
	}
	k := c.len / c.sector
	if k == len(c.data) {
		return nil
	}
	return c.st.Sector(c.data[k])[c.len%c.sector:]
}

// put copies p into the carry, as much as a whole stripe takes, and
// returns the bytes it took.
func (c *carry) put(p []byte) int {
	took := 0
	for sp := c.space(); len(p) > 0 && sp != nil; sp = c.space() {
		m := copy(sp, p)
		c.len += m
		took += m
		p = p[m:]
	}
	return took
}

// take puts the first filled input bytes of slab's sectors at data into
// the carry.
func (c *carry) take(slab *stripe.Stripe, filled int) {
	for _, pos := range c.data {
		if filled == 0 {
			return
		}
		sec := slab.Sector(pos)
		filled -= c.put(sec[:min(len(sec), filled)])
	}
}

// fill reads from in into the carry until it holds a whole stripe or in
// ends, and returns the bytes it read.
func (c *carry) fill(in *streamReader) (int64, error) {
	var got int64
	for sp := c.space(); sp != nil; sp = c.space() {
		m, err := in.readFull(sp)
		c.len += m
		got += int64(m)
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return got, nil
		default:
			return got, err
		}
	}
	return got, nil
}

// pad zero-fills the carry to a whole stripe.
func (c *carry) pad() {
	for sp := c.space(); sp != nil; sp = c.space() {
		clear(sp)
		c.len += len(sp)
	}
}

// errStopped is the streamCoder's short write once the sink is
// satisfied: it leaves the pushing reader after the stripes consumed.
var errStopped = errors.New("pipeline: stream satisfied")

// streamCoder is the io.Writer EncodeStream and DecodeStream copy src
// into with io.Copy, so it reads src as io.Copy does. A src with WriteTo
// (bytes.Reader, bytes.Buffer, strings.Reader, io.MultiReader,
// bufio.Reader) pushes its bytes through Write or WriteString, and the
// coder runs the engine over every whole stripe in them as a view that
// aliases them: the survivors are the pushed bytes, the faulty sectors
// the job's slab. Any other src reaches ReadFrom, which pulls it
// through readerSource's fill paths. Either way one engine runs the
// whole stream, numbering its stripes across runs.
type streamCoder struct {
	e     *Engine
	sink  Sink
	ds    *dataSink // DecodeStream's sink: once it is satisfied the stream ends
	data  []int     // the positions a stripe's input fills, in input order
	surv  []int     // the indices into data of the positions the engine reads, not rewrites
	image bool      // the input is stripe images, not payload
	size  int       // input bytes per stripe
	last  bool      // src has no WriteTo: io.Copy hands it whole to ReadFrom, and its end is the stream's

	end     int64 // the input length src reported through Len, or -1
	idx     int   // stripes drained so far: the stream index of the next
	n       int64 // input bytes consumed
	padded  bool  // the stream's zero-padded final stripe has run
	stopped bool  // the sink is satisfied

	carry carry
	push  pushSource
	slabs []*stripe.Stripe // the engine's slabs, and ...
	views []*stripe.View   // ... the view over each, for pushed stripes
}

// newStreamCoder builds the coder of one stream into sink: a dataSink
// makes it a decode, whose input is stripe images, and any other sink an
// encode of payload.
func newStreamCoder(c codes.Code, sc codes.Scenario, sectorSize int, cfg Config, sink Sink) (*streamCoder, error) {
	if sectorSize <= 0 {
		// Size 0 builds a slab-less engine, and the coder fills slabs.
		return nil, fmt.Errorf("pipeline: stream sector size %d must be positive", sectorSize)
	}
	e, err := New(c, sc, sectorSize, cfg)
	if err != nil {
		return nil, err
	}
	ds, image := sink.(*dataSink)
	data := codes.DataPositions(c)
	if image {
		data = make([]int, codes.TotalSectors(c))
		for i := range data {
			data[i] = i
		}
	}
	faulty := make(map[int]bool, len(sc.Faulty))
	for _, f := range sc.Faulty {
		faulty[f] = true
	}
	var surv []int
	for k, pos := range data {
		if !faulty[pos] {
			surv = append(surv, k)
		}
	}
	return &streamCoder{
		e: e, sink: sink, ds: ds, data: data, surv: surv, image: image,
		size:  len(data) * sectorSize,
		end:   -1,
		carry: carry{data: data, n: c.NumStrips(), r: c.NumRows(), sector: sectorSize},
	}, nil
}

// close gives the carry's slab back and closes the engine.
func (c *streamCoder) close() {
	if c.carry.st != nil && c.e.Healthy() {
		giveSlab(c.carry.st)
	}
	c.e.Close()
}

// stream runs src through the engine as one stream and ends it.
func (c *streamCoder) stream(src io.Reader) error {
	_, pushes := src.(io.WriterTo)
	c.last = !pushes
	if l, ok := src.(interface{ Len() int }); ok {
		c.end = int64(l.Len())
	}
	_, err := io.Copy(c, src)
	if err == nil {
		err = c.flush()
	}
	if errors.Is(err, errStopped) {
		err = nil
	}
	return err
}

// run drives one run of the stream from stripe c.idx on.
func (c *streamCoder) run(src Source) (int, error) {
	n, err := c.e.run(context.Background(), c.idx, src, c.sink)
	c.idx += n
	c.stopped = c.ds != nil && c.ds.remaining == 0
	return n, err
}

// pushed runs the carry, when it holds a whole stripe, then b's whole
// stripes, then, when final, the rest of b as the stream's zero-padded
// last stripe, and returns the stripes drained.
func (c *streamCoder) pushed(b []byte, final bool) (int, error) {
	carried := c.carry.len == c.size
	c.push = pushSource{c: c, first: c.idx, carried: carried, b: b, whole: len(b) / c.size, final: final}
	n, err := c.run(&c.push)
	if carried && n > 0 {
		c.carry.len = 0
	}
	return n, err
}

// Write runs the engine over p: the carried stripe completed from p's
// start, then p's whole stripes, each a view aliasing p. A partial
// stripe at p's end is copied into the carry, unless p reaches the
// length src reported: then it is the stream's last stripe and runs in
// the same run, zero-padded. p is only read, and not kept.
func (c *streamCoder) Write(p []byte) (int, error) {
	switch {
	case c.stopped:
		return 0, errStopped
	case c.padded && len(p) > 0:
		return 0, fmt.Errorf("pipeline: the reader gave more than the %d bytes its Len reported", c.end)
	}
	if c.views == nil {
		if err := c.makeViews(); err != nil {
			return 0, err
		}
	}
	prev := c.carry.len
	took := 0
	if prev > 0 {
		took = c.carry.put(p)
		if c.carry.len < c.size {
			c.n += int64(took)
			return took, nil
		}
	}
	b := p[took:]
	rest := b[len(b)/c.size*c.size:]
	final := !c.image && len(rest) > 0 && c.n+int64(len(p)) == c.end
	drained, err := c.pushed(b, final)
	if err != nil || c.stopped {
		// The bytes of p in the stripes drained: a short write leaves
		// the reader after them.
		used := max(drained*c.size-prev, 0)
		c.n += int64(used)
		if err == nil {
			err = errStopped
		}
		return used, err
	}
	if final {
		c.padded = true
	} else {
		c.carry.put(rest)
	}
	c.n += int64(len(p))
	return len(p), nil
}

// WriteString is Write over s's bytes, aliased: strings.Reader pushes
// through it. Write only reads them, and so does the sink, whose writer
// the io.Writer contract forbids to modify them.
func (c *streamCoder) WriteString(s string) (int, error) {
	return c.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// ReadFrom pulls r through the engine: with ReadAt on the compute shards
// when r is an io.ReaderAt and an io.Seeker (atReader), otherwise in
// order through Read. It first completes the carried stripe from r.
// Unless r is src itself, r's end need not be the stream's, so a
// partial stripe at its end is carried as a push's is.
func (c *streamCoder) ReadFrom(r io.Reader) (int64, error) {
	switch {
	case c.stopped:
		return 0, nil
	case c.padded:
		return 0, fmt.Errorf("pipeline: the reader gave more than the %d bytes its Len reported", c.end)
	}
	at := newAtReader(r)
	in := streamReader{r: r}
	if at != nil {
		in = streamReader{at: at.r, off: at.base}
	}
	var got int64
	if c.carry.len > 0 {
		m, err := c.carry.fill(&in)
		got += m
		c.n += m
		if err == nil && c.carry.len == c.size {
			_, err = c.pushed(nil, false)
		}
		if at != nil {
			at.base = in.off
		}
		if err != nil || c.carry.len > 0 || c.stopped {
			if at != nil {
				err = at.finish(err)
			}
			return got, err
		}
	}
	rs := readerSource{data: c.data, image: c.image}
	if !c.last {
		rs.carry = &c.carry
	}
	var err error
	if at != nil {
		at.first = c.idx
		var drained int
		drained, err = c.run(&atSource{atReader: at, rs: rs})
		if c.stopped {
			// Leave r after the images decoded, as a push does, not
			// after every image the shards filled ahead of the drain.
			at.n.Store(int64(drained * c.size))
		}
		got += at.n.Load()
		c.n += at.n.Load()
		err = at.finish(err)
	} else {
		rs.in = in
		_, err = c.run(&rs)
		got += rs.n
		c.n += rs.n
	}
	return got, err
}

// flush ends the stream: a carried partial stripe runs zero-padded on
// encode, and is a truncated image on decode.
func (c *streamCoder) flush() error {
	switch {
	case c.carry.len == 0 || c.stopped:
		return nil
	case c.image:
		return fmt.Errorf("pipeline: stripe %d: truncated stripe image: %w", c.idx, io.ErrUnexpectedEOF)
	}
	c.carry.pad()
	_, err := c.pushed(nil, false)
	return err
}

// makeViews gives each of the idle engine's slabs a view, which starts
// out as the slab's own sectors; view re-points its survivors.
func (c *streamCoder) makeViews() error {
	for range cap(c.e.free) {
		j := <-c.e.free
		c.e.free <- j
		secs := make([][]byte, j.slab.TotalSectors())
		for i := range secs {
			secs[i] = j.slab.Sector(i)
		}
		v, err := stripe.NewView(j.slab.N(), j.slab.R(), j.slab.SectorSize(), secs)
		if err != nil {
			return err
		}
		c.slabs = append(c.slabs, j.slab)
		c.views = append(c.views, v)
	}
	return nil
}

// view returns slab's view over b, one stripe's input: each survivor
// aliases its sector of b, and the faulty positions are slab's sectors.
// A survivor b does not cover whole, past the end of the stream's
// zero-padded last stripe, is slab's own sector, holding b's last bytes
// and zeros.
func (c *streamCoder) view(slab *stripe.Stripe, b []byte) *stripe.Stripe {
	var v *stripe.View
	for i, s := range c.slabs {
		if s == slab {
			v = c.views[i]
			break
		}
	}
	sector := c.carry.sector
	for _, k := range c.surv {
		lo := k * sector
		if lo+sector <= len(b) {
			v.Alias(c.data[k], b[lo:lo+sector])
			continue
		}
		sec := slab.Sector(c.data[k])
		clear(sec[copy(sec, b[min(lo, len(b)):]):])
		v.Alias(c.data[k], sec)
	}
	return v.Stripe()
}

// pushSource is one push's stripes, from stream index first on: the
// carry when carried, then b's whole stripes as views, then, when final,
// the rest of b as the stream's zero-padded last stripe. Next only
// reads the push and writes the view of the slab it is handed, so the
// shards fill the stripes they compute.
type pushSource struct {
	c       *streamCoder
	first   int
	carried bool
	b       []byte
	whole   int
	final   bool
}

func (s *pushSource) ConcurrentNext() {}

//ppm:hotpath
func (s *pushSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	k := idx - s.first
	if s.carried {
		if k == 0 {
			return s.c.carry.st, nil
		}
		k--
	}
	size := s.c.size
	switch {
	case k < s.whole:
		return s.c.view(slab, s.b[k*size:(k+1)*size]), nil
	case k == s.whole && s.final:
		return s.c.view(slab, s.b[k*size:]), nil
	}
	return nil, nil
}

// EncodeStream reads payload bytes from src, encodes them stripe by
// stripe through the pipeline (plan compiled once, Depth stripes in
// flight), and writes full stripe images to dst. The final stripe is
// zero-padded; Result.Bytes reports the payload consumed, which the
// caller needs to trim the padding after a later DecodeStream.
//
// src is read as io.Copy reads it. A src with WriteTo hands over its
// bytes, and the engine computes parity over them where they are,
// without copying them; they must not change during the call. A src
// that also reports its remaining length with Len() int ends the
// stream when that many bytes have arrived, and fails the call if it
// gives more. Without WriteTo, a src that is an io.ReaderAt and an
// io.Seeker is read by the compute shards with ReadAt at its offset
// from src's current position, never through Read, and moved past the
// bytes consumed with Seek; any other src is read in order with Read.
func EncodeStream(c codes.Code, dst io.Writer, src io.Reader, sectorSize int, cfg Config) (Result, error) {
	sc, err := newStreamCoder(c, codes.EncodingScenario(c), sectorSize, cfg, &imageSink{w: dst})
	if err != nil {
		return Result{}, err
	}
	defer sc.close()
	err = sc.stream(src)
	return Result{Stripes: sc.idx, Bytes: sc.n}, err
}

// DecodeStream reads stripe images from src, recovers the scenario's
// faulty sectors in each (bytes at faulty positions in the stream are
// ignored and reconstructed), and writes the payload's data bytes to
// dst. payload is the original byte count from the matching
// EncodeStream, used to trim the final stripe's zero padding; pass a
// negative payload to emit every data byte, padding included. Decoding
// stops once the payload is satisfied: a short payload over a long
// stream decodes only ⌈payload/stripe payload⌉ stripes, and src is left
// after the images decoded, unless it is read in order with Read, which
// runs up to Depth images ahead. An empty scenario
// turns DecodeStream into an overlapped extract of an intact stream.
// src is read as EncodeStream reads it, and the images it hands over
// are never written.
func DecodeStream(c codes.Code, dst io.Writer, src io.Reader, sc codes.Scenario, payload int64, sectorSize int, cfg Config) (Result, error) {
	ds := &dataSink{w: dst, data: codes.DataPositions(c), remaining: payload}
	coder, err := newStreamCoder(c, sc, sectorSize, cfg, ds)
	if err != nil {
		return Result{}, err
	}
	defer coder.close()
	err = coder.stream(src)
	if err == nil && payload > 0 && ds.remaining > 0 {
		return Result{Stripes: coder.idx, Bytes: ds.n},
			fmt.Errorf("pipeline: stream ended %d bytes short of the %d-byte payload", ds.remaining, payload)
	}
	return Result{Stripes: coder.idx, Bytes: ds.n}, err
}
