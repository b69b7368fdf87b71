package fleet

// Crash-safe coordinator state: a Journal records each completed unit of
// one batch as it lands, so a coordinator killed mid-batch can restart,
// reload the journal and re-dispatch only the incomplete units. The
// batch is identified by a signature over its jobs (with the
// coordinator-assigned Unit/Epoch fields zeroed), so a journal can never
// feed a different batch's results into this one.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// journalMagic identifies a fleet journal file and its format version.
// v2 switched the body to tagged records ({"result":…} / {"telemetry":…})
// so the batch's fleet telemetry summary can live in the journal without
// a bare summary line ever being mistaken for a unit result.
const journalMagic = "replend-fleet-journal/v2"

// journalMagicV1 is the untagged predecessor format. It is recognized
// only to refuse it with a precise message instead of "not a journal".
const journalMagicV1 = "replend-fleet-journal/v1"

// journalHeader is the first line of a journal.
type journalHeader struct {
	Magic     string `json:"magic"`
	Signature string `json:"signature"`
	N         int    `json:"n"`
}

// journalRecord is one tagged body line: exactly one field is set.
type journalRecord struct {
	Result    *Result           `json:"result,omitempty"`
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`
}

// TelemetrySummary is the fleet-wide telemetry record appended to the
// journal when a batch completes: observability only, never replayed
// into results. A batch resumed by a second coordinator appends its own
// summary after the first.
type TelemetrySummary struct {
	// Units is the batch size.
	Units int `json:"units"`
	// Workers is how many distinct workers completed at least one unit
	// under this coordinator (journal-replayed units count nobody).
	Workers int `json:"workers"`
	// ElapsedSeconds is the batch's wall-clock time under this
	// coordinator.
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// PeakRSS is the largest resident set any worker reported over its
	// heartbeat telemetry, in bytes.
	PeakRSS uint64 `json:"peakRss,omitempty"`
}

// Journal is an append-only record of one batch's completed units.
type Journal struct {
	file      *os.File
	completed []*Result // by unit index; nil where incomplete
}

// BatchSignature fingerprints a batch's work independently of how the
// coordinator numbers it: each job is hashed with Unit and Epoch zeroed.
func BatchSignature(jobs []Job) (string, error) {
	h := sha256.New()
	var n [8]byte
	for i := range jobs {
		j := jobs[i]
		j.Unit, j.Epoch = 0, 0
		data, err := json.Marshal(j)
		if err != nil {
			return "", fmt.Errorf("fleet: hashing job %d: %w", i, err)
		}
		binary.BigEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// OpenJournal opens (or creates) the journal for the given batch. A
// fresh or empty file is initialized with the batch header. An existing
// journal must belong to the same batch — same signature and unit count
// — or OpenJournal refuses, rather than silently discarding or mixing
// state; completed results recorded by the previous coordinator are
// loaded, and RunJournaled merges them without dispatching. A partial
// final line (the previous coordinator died mid-append) is dropped and
// truncated away.
func OpenJournal(path string, jobs []Job) (*Journal, error) {
	sig, err := BatchSignature(jobs)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening journal: %w", err)
	}
	j := &Journal{file: f, completed: make([]*Result, len(jobs))}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxFrame)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: reading journal header: %w", err)
		}
		// Empty file: write the header and start fresh.
		hdr, err := json.Marshal(journalHeader{Magic: journalMagic, Signature: sig, N: len(jobs)})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: syncing journal: %w", err)
		}
		return j, nil
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: journal header corrupt: %w", err)
	}
	if hdr.Magic == journalMagicV1 {
		f.Close()
		return nil, fmt.Errorf("fleet: journal %s uses the retired v1 format — delete it and rerun the batch", path)
	}
	if hdr.Magic != journalMagic {
		f.Close()
		return nil, fmt.Errorf("fleet: %s is not a fleet journal (magic %q)", path, hdr.Magic)
	}
	if hdr.Signature != sig || hdr.N != len(jobs) {
		f.Close()
		return nil, fmt.Errorf("fleet: journal %s belongs to a different batch — delete it or use another path", path)
	}
	// Replay the tagged records. good tracks the end of the last intact
	// line so a torn final append can be truncated away.
	good := int64(len(sc.Bytes()) + 1)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn tail; truncate below
		}
		if rec.Result == nil && rec.Telemetry == nil {
			break // a line from no version of this code; treat as a torn tail
		}
		// A telemetry record is observability only; replay skips it.
		if rec.Telemetry == nil {
			res := rec.Result
			if res.Unit < 0 || res.Unit >= len(jobs) {
				f.Close()
				return nil, fmt.Errorf("fleet: journal records unit %d outside the batch", res.Unit)
			}
			if j.completed[res.Unit] != nil {
				f.Close()
				return nil, fmt.Errorf("fleet: journal records unit %d twice", res.Unit)
			}
			if res.Err != "" {
				f.Close()
				return nil, fmt.Errorf("fleet: journal records a failed unit %d: %s", res.Unit, res.Err)
			}
			j.completed[res.Unit] = res
		}
		good += int64(len(sc.Bytes()) + 1)
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		f.Close()
		return nil, fmt.Errorf("fleet: reading journal: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: seeking journal: %w", err)
	}
	return j, nil
}

// append durably records one completed unit. Called with the fleet lock
// held; each record is synced before the result is merged, so a crash
// after the merge can never lose a unit the caller saw complete.
func (j *Journal) append(res *Result) error {
	if err := j.appendRecord(&journalRecord{Result: res}); err != nil {
		return err
	}
	j.completed[res.Unit] = res
	return nil
}

// appendSummary durably records the batch's fleet telemetry summary.
func (j *Journal) appendSummary(s *TelemetrySummary) error {
	return j.appendRecord(&journalRecord{Telemetry: s})
}

// appendRecord writes and syncs one tagged line.
func (j *Journal) appendRecord(rec *journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: encoding journal record: %w", err)
	}
	if _, err := j.file.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("fleet: appending journal record: %w", err)
	}
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("fleet: syncing journal: %w", err)
	}
	return nil
}

// Close releases the journal file. The file itself is left in place —
// deleting it after a successful batch is the caller's decision.
func (j *Journal) Close() error { return j.file.Close() }
