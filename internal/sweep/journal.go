package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is the sweep's append-only progress log (JSONL, one record per
// line). It is advisory: resume correctness rides entirely on the
// content-addressed cache, and the journal exists so humans and tests can
// see what a (possibly killed) sweep did — which cells were cache hits,
// which were simulated, which failed persistently and were degraded.
// Records from concurrent workers are serialized under a mutex; a crash
// can truncate at most the final line, and the reader tolerates that.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// Record is one journal line.
type Record struct {
	// Event is one of "sweep-start", "corrupt", "hit", "start", "done",
	// "failed", "interrupted".
	Event       string `json:"event"`
	Fingerprint string `json:"fp,omitempty"`
	Label       string `json:"label,omitempty"`
	Err         string `json:"err,omitempty"`
	// Version is set on "sweep-start" records.
	Version string `json:"version,omitempty"`
}

// OpenJournal opens (appending) the journal at path and writes a
// sweep-start record.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	if err := j.Append(Record{Event: "sweep-start", Version: Version}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Append writes one record and flushes it to the OS, so a journal line is
// durable against process death as soon as Append returns (an OS crash
// can still cost unsynced lines; Checkpoint closes that window).
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	return nil
}

// Checkpoint fsyncs the journal — called when draining on SIGINT/SIGTERM
// so the resume hint is backed by durable progress records.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes, syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Summary aggregates a journal's records.
type Summary struct {
	Sweeps      int // sweep-start records (1 + number of resumes)
	Hits        int
	Done        int
	Failed      int
	Interrupted int
}

// ReadJournal parses the journal at path, tolerating a truncated final
// line (the crash case it exists for).
func ReadJournal(path string) (Summary, error) {
	var s Summary
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			// A torn tail line is expected after a hard kill; anything
			// unparseable is skipped rather than trusted.
			continue
		}
		switch rec.Event {
		case "sweep-start":
			s.Sweeps++
		case "hit":
			s.Hits++
		case "done":
			s.Done++
		case "failed":
			s.Failed++
		case "interrupted":
			s.Interrupted++
		}
	}
	return s, sc.Err()
}
