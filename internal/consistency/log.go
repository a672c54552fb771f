// Observation-log I/O: the "xgobs" line format written by the campaign
// CLIs' -obs flag and read back by cmd/xgcheck. The format is
// line-oriented and hand-rolled like the obs JSONL exporter: fixed
// field order, no maps, no reflection, so a given record set always
// renders to identical bytes.
//
// Writers emit xgobs v2, which adds the accel column (the device tag of
// the recording core) between shard and core — or xgobs v3, which adds
// the guard-epoch column after accel, but only when some record actually
// carries a nonzero epoch (a run with quarantine recovery), so logs from
// recovery-free runs stay byte-identical to the v2 format. ReadLog
// accepts both; v2 records parse with epoch 0.
package consistency

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

// logHeader is the first line of recovery-free observation logs.
const logHeader = "# xgobs v2"

// logHeaderV3 heads logs whose records carry guard epochs.
const logHeaderV3 = "# xgobs v3"

// logColumns documents the field order of every v2 record line.
const logColumns = "# shard accel core op addr val issued done"

// logColumnsV3 documents the field order of every v3 record line.
const logColumnsV3 = "# shard accel epoch core op addr val issued done"

// hasEpoch reports whether any record carries a nonzero guard epoch
// (i.e. a device reset happened during the run).
func hasEpoch(recs []Rec) bool {
	for _, r := range recs {
		if r.Epoch != 0 {
			return true
		}
	}
	return false
}

// WriteLog writes recs as one xgobs log, every line tagged with the
// given shard index — v3 when any record carries a nonzero guard epoch,
// v2 otherwise. Records are written in the order given (callers pass
// Recorder.Merged() or another canonical order).
func WriteLog(w io.Writer, shard int, recs []Rec) error {
	bw := bufio.NewWriter(w)
	v3 := hasEpoch(recs)
	writeHeader(bw, v3)
	if err := writeShard(bw, shard, recs, v3); err != nil {
		return err
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, v3 bool) {
	if v3 {
		fmt.Fprintln(w, logHeaderV3)
		fmt.Fprintln(w, logColumnsV3)
	} else {
		fmt.Fprintln(w, logHeader)
		fmt.Fprintln(w, logColumns)
	}
}

// writeShard appends record lines without a header (the multi-shard
// exporter in the campaign package writes one header then appends every
// shard in index order).
func writeShard(w io.Writer, shard int, recs []Rec, v3 bool) error {
	for _, r := range recs {
		var err error
		if v3 {
			_, err = fmt.Fprintf(w, "%d %d %d %d %s 0x%x 0x%02x %d %d\n",
				shard, r.Accel, r.Epoch, r.Core, r.Op, uint64(r.Addr), r.Val, uint64(r.Issued), uint64(r.Done))
		} else {
			_, err = fmt.Fprintf(w, "%d %d %d %s 0x%x 0x%02x %d %d\n",
				shard, r.Accel, r.Core, r.Op, uint64(r.Addr), r.Val, uint64(r.Issued), uint64(r.Done))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// LogWriter streams a multi-shard observation log: one header, then
// each shard's records appended in the order Add is called.
type LogWriter struct {
	bw     *bufio.Writer
	header bool
	v3     bool
}

// NewLogWriter returns a writer targeting w.
func NewLogWriter(w io.Writer) *LogWriter { return &LogWriter{bw: bufio.NewWriter(w)} }

// RequireV3 forces the epoch-carrying v3 format. The header (and with it
// the version) is fixed at the first Add, so callers whose LATER shards
// may carry epochs — a recovery campaign whose first shard happened not
// to reset — must call this before the first Add. No-op after the header
// is written.
func (lw *LogWriter) RequireV3() {
	if !lw.header {
		lw.v3 = true
	}
}

// Add appends one shard's records (header is written on first use; the
// v3 format is selected if these records carry epochs or RequireV3 was
// called).
func (lw *LogWriter) Add(shard int, recs []Rec) error {
	if !lw.header {
		if hasEpoch(recs) {
			lw.v3 = true
		}
		writeHeader(lw.bw, lw.v3)
		lw.header = true
	}
	return writeShard(lw.bw, shard, recs, lw.v3)
}

// Flush completes the log.
func (lw *LogWriter) Flush() error {
	if !lw.header {
		writeHeader(lw.bw, lw.v3)
		lw.header = true
	}
	return lw.bw.Flush()
}

// ShardRecs is one shard's slice of a parsed observation log.
type ShardRecs struct {
	Shard int
	Recs  []Rec
}

// ReadLog parses an xgobs log — v3 or v2 — and returns the records
// grouped by shard index, shards in ascending order, records in file
// order within each shard.
func ReadLog(r io.Reader) ([]ShardRecs, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	byShard := map[int][]Rec{}
	lineNo := 0
	sawHeader := false
	v3 := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if lineNo == 1 {
				switch line {
				case logHeader:
				case logHeaderV3:
					v3 = true
				default:
					return nil, fmt.Errorf("consistency: not an observation log (got %q, want %q)", line, logHeader)
				}
				sawHeader = true
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("consistency: line %d: missing %q header", lineNo, logHeader)
		}
		f := strings.Fields(line)
		want := 8
		if v3 {
			want = 9
		}
		if len(f) != want {
			return nil, fmt.Errorf("consistency: line %d: want %d fields, got %d", lineNo, want, len(f))
		}
		shard, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad shard %q", lineNo, f[0])
		}
		accel, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad accel %q", lineNo, f[1])
		}
		f = f[1:] // the remaining columns line up whatever the version
		epoch := uint64(0)
		if v3 {
			epoch, err = strconv.ParseUint(f[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("consistency: line %d: bad epoch %q", lineNo, f[1])
			}
			f = f[1:]
		}
		core, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad core %q", lineNo, f[1])
		}
		op, ok := ParseOp(f[2])
		if !ok {
			return nil, fmt.Errorf("consistency: line %d: bad op %q", lineNo, f[2])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(f[3], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad addr %q", lineNo, f[3])
		}
		val, err := strconv.ParseUint(strings.TrimPrefix(f[4], "0x"), 16, 8)
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad val %q", lineNo, f[4])
		}
		issued, err := strconv.ParseUint(f[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad issued %q", lineNo, f[5])
		}
		done, err := strconv.ParseUint(f[6], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("consistency: line %d: bad done %q", lineNo, f[6])
		}
		byShard[shard] = append(byShard[shard], Rec{
			Issued: sim.Time(issued), Done: sim.Time(done),
			Addr: mem.Addr(addr), Core: int32(core), Accel: int32(accel),
			Epoch: uint32(epoch), Op: op, Val: byte(val),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("consistency: reading log: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("consistency: empty input (no %q header)", logHeader)
	}
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	out := make([]ShardRecs, 0, len(shards))
	for _, s := range shards {
		out = append(out, ShardRecs{Shard: s, Recs: byShard[s]})
	}
	return out, nil
}

// Tail renders the last n records of recs as human-readable lines, the
// observation analogue of the trace-ring tail embedded in campaign
// failure artifacts.
func Tail(recs []Rec, n int) string {
	if n <= 0 || len(recs) == 0 {
		return ""
	}
	start := 0
	if len(recs) > n {
		start = len(recs) - n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "--- observation tail (last %d of %d records) ---\n", len(recs)-start, len(recs))
	for _, r := range recs[start:] {
		dev := ""
		if r.Accel != 0 {
			dev = fmt.Sprintf(" accel=%d", r.Accel)
		}
		if r.Epoch != 0 {
			dev += fmt.Sprintf(" epoch=%d", r.Epoch)
		}
		fmt.Fprintf(&b, "t=%d..%d core=%d%s %s %v = 0x%02x\n",
			uint64(r.Issued), uint64(r.Done), r.Core, dev, r.Op, r.Addr, r.Val)
	}
	return b.String()
}
