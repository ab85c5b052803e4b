package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Magic identifies trace files.
var Magic = [8]byte{'T', 'A', 'L', 'U', 'S', 'T', 'R', 'C'}

// Format versions. Version1 is the legacy flat format; Version2 is the
// partitioned record format new writers produce.
const (
	Version1 uint32 = 1
	Version2 uint32 = 2

	// Version is the version NewWriter produces.
	Version = Version2
)

// Flags in the version-2 header.
const (
	// FlagGzip marks the body (everything after the flags word) as a
	// gzip stream.
	FlagGzip uint32 = 1 << 0
	// FlagMeta marks the presence of per-partition app metadata.
	FlagMeta uint32 = 1 << 1

	flagsKnown = FlagGzip | FlagMeta
)

// Errors returned by the readers.
var (
	ErrBadMagic   = errors.New("trace: bad magic")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrBadFlags   = errors.New("trace: unknown flags")
	ErrCorrupt    = errors.New("trace: corrupt record stream")
)

// maxPartitions bounds the partition count a reader will accept (a
// corrupt header must not allocate unbounded state).
const maxPartitions = 1 << 16

// AppMeta is the per-partition application metadata a version-2 trace
// can carry: the recorded clone's name and analytic core-model
// parameters, enough to rebuild the app's core model at replay time.
type AppMeta struct {
	Name    string
	APKI    float64
	CPIBase float64
	MLP     float64
}

// Record is one trace entry: partition P accessed line address Addr.
// Addresses are recorded in the generator's private space (without the
// per-app address-space offset the feeders apply — see adaptive.AppSpace).
type Record struct {
	P    int
	Addr uint64
}

// Header describes a parsed trace's shape.
type Header struct {
	Version       uint32
	Flags         uint32
	NumPartitions int
	Apps          []AppMeta // len NumPartitions when FlagMeta is set, else nil
}

// --- Writer -------------------------------------------------------------

// Writer streams records into a version-2 trace. Not safe for
// concurrent use. Close flushes; it does not close the underlying
// writer.
type Writer struct {
	bw    *bufio.Writer // over gz when compressing, else over the sink
	gz    *gzip.Writer  // nil when not compressing
	n     int
	last  []uint64 // previous address per partition (delta base)
	buf   [2 * binary.MaxVarintLen64]byte
	count int64
	err   error
}

// WriterOption configures NewWriter.
type WriterOption func(*writerOpts)

type writerOpts struct {
	gzip bool
	apps []AppMeta
}

// WithGzip compresses the trace body.
func WithGzip() WriterOption { return func(o *writerOpts) { o.gzip = true } }

// WithApps embeds per-partition app metadata (FlagMeta); len(apps)
// must equal the writer's partition count.
func WithApps(apps []AppMeta) WriterOption {
	cp := make([]AppMeta, len(apps))
	copy(cp, apps)
	return func(o *writerOpts) { o.apps = cp }
}

// NewWriter writes a version-2 header for numPartitions partitions to w
// and returns a Writer appending records to it.
func NewWriter(w io.Writer, numPartitions int, opts ...WriterOption) (*Writer, error) {
	if numPartitions < 1 || numPartitions > maxPartitions {
		return nil, fmt.Errorf("trace: partition count %d out of range [1,%d]", numPartitions, maxPartitions)
	}
	var o writerOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.apps != nil && len(o.apps) != numPartitions {
		return nil, fmt.Errorf("trace: %d app metas for %d partitions", len(o.apps), numPartitions)
	}
	var flags uint32
	if o.gzip {
		flags |= FlagGzip
	}
	if o.apps != nil {
		flags |= FlagMeta
	}
	var hdr [16]byte
	copy(hdr[:8], Magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version2)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	tw := &Writer{n: numPartitions, last: make([]uint64, numPartitions)}
	if o.gzip {
		tw.gz = gzip.NewWriter(w)
		tw.bw = bufio.NewWriter(tw.gz)
	} else {
		tw.bw = bufio.NewWriter(w)
	}
	var body []byte
	body = binary.AppendUvarint(body, uint64(numPartitions))
	for _, a := range o.apps {
		body = binary.AppendUvarint(body, uint64(len(a.Name)))
		body = append(body, a.Name...)
		for _, f := range []float64{a.APKI, a.CPIBase, a.MLP} {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(f))
		}
	}
	if _, err := tw.bw.Write(body); err != nil {
		return nil, err
	}
	return tw, nil
}

// Append writes one record.
func (w *Writer) Append(p int, addr uint64) error {
	if w.err != nil {
		return w.err
	}
	if p < 0 || p >= w.n {
		w.err = fmt.Errorf("trace: partition %d out of range [0,%d)", p, w.n)
		return w.err
	}
	k := binary.PutUvarint(w.buf[:], uint64(p))
	k += binary.PutVarint(w.buf[k:], int64(addr-w.last[p]))
	w.last[p] = addr
	if _, err := w.bw.Write(w.buf[:k]); err != nil {
		w.err = err
		return err
	}
	w.count++
	return nil
}

// AppendBatch writes one record per address, all on partition p.
func (w *Writer) AppendBatch(p int, addrs []uint64) error {
	for _, a := range addrs {
		if err := w.Append(p, a); err != nil {
			return err
		}
	}
	return nil
}

// Count returns how many records have been appended.
func (w *Writer) Count() int64 { return w.count }

// Close flushes buffered records (and terminates the gzip stream). The
// underlying writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			w.err = err
			return err
		}
	}
	w.err = errors.New("trace: writer closed")
	return nil
}

// --- Reader -------------------------------------------------------------

// Reader streams records out of a trace. It reads both versions:
// version-1 traces surface as a single partition (P always 0). Not safe
// for concurrent use.
type Reader struct {
	br     *bufio.Reader
	hdr    Header
	last   []uint64
	v1left uint64 // remaining flat addresses (version 1 only)
}

// NewReader parses the header from r and returns a Reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	switch version {
	case Version1:
		var count uint64
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, err
		}
		const maxCount = 1 << 32 // sanity bound: 32 GB of addresses
		if count > maxCount {
			return nil, fmt.Errorf("trace: implausible count %d", count)
		}
		return &Reader{
			br:     br,
			hdr:    Header{Version: Version1, NumPartitions: 1},
			last:   make([]uint64, 1),
			v1left: count,
		}, nil
	case Version2:
		var flags uint32
		if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
			return nil, err
		}
		if flags&^flagsKnown != 0 {
			return nil, fmt.Errorf("%w: %#x", ErrBadFlags, flags&^flagsKnown)
		}
		if flags&FlagGzip != 0 {
			gz, err := gzip.NewReader(br)
			if err != nil {
				return nil, fmt.Errorf("trace: gzip body: %w", err)
			}
			br = bufio.NewReader(gz)
		}
		np, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: partition count: %w", errCorrupt(err))
		}
		if np < 1 || np > maxPartitions {
			return nil, fmt.Errorf("trace: partition count %d out of range [1,%d]", np, maxPartitions)
		}
		hdr := Header{Version: Version2, Flags: flags, NumPartitions: int(np)}
		if flags&FlagMeta != 0 {
			hdr.Apps = make([]AppMeta, np)
			for i := range hdr.Apps {
				nameLen, err := binary.ReadUvarint(br)
				if err != nil || nameLen > 4096 {
					return nil, fmt.Errorf("trace: app %d name: %w", i, errCorrupt(err))
				}
				name := make([]byte, nameLen)
				if _, err := io.ReadFull(br, name); err != nil {
					return nil, fmt.Errorf("trace: app %d name: %w", i, errCorrupt(err))
				}
				var fs [3]float64
				for j := range fs {
					var bits uint64
					if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
						return nil, fmt.Errorf("trace: app %d params: %w", i, errCorrupt(err))
					}
					fs[j] = math.Float64frombits(bits)
				}
				hdr.Apps[i] = AppMeta{Name: string(name), APKI: fs[0], CPIBase: fs[1], MLP: fs[2]}
			}
		}
		return &Reader{br: br, hdr: hdr, last: make([]uint64, np)}, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
}

// errCorrupt maps a clean EOF inside a structure to ErrCorrupt (a
// truncated trace must not read as a short-but-valid one).
func errCorrupt(err error) error {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrCorrupt
	}
	return err
}

// Header returns the parsed trace header.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next record, or io.EOF when the trace is exhausted.
func (r *Reader) Next() (Record, error) {
	if r.hdr.Version == Version1 {
		if r.v1left == 0 {
			return Record{}, io.EOF
		}
		var buf [8]byte
		if _, err := io.ReadFull(r.br, buf[:]); err != nil {
			return Record{}, errCorrupt(err)
		}
		r.v1left--
		return Record{P: 0, Addr: binary.LittleEndian.Uint64(buf[:])}, nil
	}
	p, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			// A record boundary is the one legitimate end of stream.
			return Record{}, io.EOF
		}
		return Record{}, errCorrupt(err)
	}
	if p >= uint64(r.hdr.NumPartitions) {
		return Record{}, fmt.Errorf("%w: partition %d out of range [0,%d)", ErrCorrupt, p, r.hdr.NumPartitions)
	}
	delta, err := binary.ReadVarint(r.br)
	if err != nil {
		return Record{}, errCorrupt(err)
	}
	r.last[p] += uint64(delta)
	return Record{P: int(p), Addr: r.last[p]}, nil
}

// FileReader is a Reader that owns its file handle: the streaming
// counterpart of Load, for traces larger than memory. Read records with
// Next; Close when done.
type FileReader struct {
	*Reader
	f *os.File
}

// OpenFile opens path and parses the trace header, returning a
// FileReader positioned at the first record.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Close releases the underlying file.
func (r *FileReader) Close() error { return r.f.Close() }

// --- Loaded traces ------------------------------------------------------

// Trace is a fully loaded trace: header plus all records in stream
// order.
type Trace struct {
	Header  Header
	Records []Record
}

// Load reads an entire trace file into memory.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ReadAll drains a Reader over r into a Trace.
func ReadAll(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Header: tr.Header()}
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, rec)
	}
}

// NumPartitions returns the trace's partition count.
func (t *Trace) NumPartitions() int { return t.Header.NumPartitions }

// Counts returns per-partition record counts.
func (t *Trace) Counts() []int64 {
	out := make([]int64, t.Header.NumPartitions)
	for _, r := range t.Records {
		out[r.P]++
	}
	return out
}

// PartitionStream returns partition p's addresses in stream order.
func (t *Trace) PartitionStream(p int) []uint64 {
	var out []uint64
	for _, r := range t.Records {
		if r.P == p {
			out = append(out, r.Addr)
		}
	}
	return out
}

// PartitionStreams buckets every partition's addresses in one pass over
// the records (PartitionStream per partition would rescan the whole
// trace NumPartitions times).
func (t *Trace) PartitionStreams() [][]uint64 {
	counts := t.Counts()
	out := make([][]uint64, t.Header.NumPartitions)
	for p, c := range counts {
		out[p] = make([]uint64, 0, c)
	}
	for _, r := range t.Records {
		out[r.P] = append(out[r.P], r.Addr)
	}
	return out
}

// Flat returns every address in stream order, partitions interleaved as
// recorded.
func (t *Trace) Flat() []uint64 {
	out := make([]uint64, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.Addr
	}
	return out
}

// Meta returns partition p's app metadata and whether the trace carries
// any.
func (t *Trace) Meta(p int) (AppMeta, bool) {
	if t.Header.Apps == nil || p < 0 || p >= len(t.Header.Apps) {
		return AppMeta{}, false
	}
	return t.Header.Apps[p], true
}

// Capture collects n addresses from next (a generator's Next method).
func Capture(next func() uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = next()
	}
	return out
}
