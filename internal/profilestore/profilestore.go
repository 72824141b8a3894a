// Package profilestore manages a repository of allocation profiles, one per
// (application, workload) pair — the deployment model §3.5 of the paper
// describes: "it is possible to create multiple allocation profiles for the
// same application, one for each possible workload. Then, whenever the
// application is launched in the production phase, one allocation profile
// can be chosen according to the estimated workload."
//
// A Store is safe for concurrent use: the plan-distribution daemon
// (internal/planserver) fronts one store with many goroutines. Every file
// publishes through faultio.(*Injector).Publish (temporary name, then
// rename), so readers never observe a half-written file even across
// processes, and a crash mid-write leaves the previous version in place.
package profilestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"polm2/internal/analyzer"
	"polm2/internal/faultio"
)

// ErrNotFound reports a missing profile.
var ErrNotFound = errors.New("profilestore: profile not found")

// Key identifies one stored profile.
type Key struct {
	App      string
	Workload string
}

func (k Key) String() string { return k.App + "/" + k.Workload }

// Store is an on-disk profile repository. Profiles are stored as compact
// JSON that analyzer.LoadProfile reads like Profile.Save's output, named
// <app>__<workload>-<hash>.profile.json, where <hash> fingerprints the raw
// key so two keys that sanitize to the same text cannot overwrite each
// other. Each key has exactly one file name; no other name is read.
type Store struct {
	dir string

	mu sync.Mutex
	// fault optionally interposes on the store's writes (polm2d -faults);
	// nil writes straight through.
	fault *faultio.Injector
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profilestore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetFault interposes an I/O fault injector on the store's writes.
// A nil injector (the default) writes straight through.
func (s *Store) SetFault(in *faultio.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = in
}

// sanitize keeps file names safe for any filesystem.
func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// keyHash fingerprints the raw (unsanitized) key, so keys that sanitize to
// the same text — "app v1" and "app_v1" — still map to distinct files.
func keyHash(k Key) string {
	h := fnv.New32a()
	h.Write([]byte(k.App))
	h.Write([]byte{0})
	h.Write([]byte(k.Workload))
	return fmt.Sprintf("%08x", h.Sum32())
}

func (s *Store) path(k Key) string {
	name := sanitize(k.App) + "__" + sanitize(k.Workload) + "-" + keyHash(k) + ".profile.json"
	return filepath.Join(s.dir, name)
}

// Put stores a profile under its own App/Workload labels, replacing any
// previous version.
func (s *Store) Put(p *analyzer.Profile) error {
	_, err := s.PutBytes(p)
	return err
}

// PutBytes is Put returning the bytes it wrote: the profile's compact JSON
// and a newline. That is exactly the plan body the daemon serves and hashes
// into its ETag, so one encode serves the file and the wire.
func (s *Store) PutBytes(p *analyzer.Profile) ([]byte, error) {
	if p.App == "" || p.Workload == "" {
		return nil, fmt.Errorf("profilestore: profile must carry App and Workload labels")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("profilestore: %w", err)
	}
	data, err := Encode(p)
	if err != nil {
		return nil, fmt.Errorf("profilestore: encoding profile: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.publish(s.path(Key{App: p.App, Workload: p.Workload}), data); err != nil {
		return nil, err
	}
	return data, nil
}

// Encode renders v in the store's on-disk form, which is also the daemon's
// served plan body: compact JSON and a newline.
func Encode(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// publish writes data to path whole or not at all, through the fault
// injector when one is set.
func (s *Store) publish(path string, data []byte) error {
	err := s.fault.Publish(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("profilestore: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Get loads the profile for the exact (app, workload) pair.
func (s *Store) Get(app, workload string) (*analyzer.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(app, workload)
}

func (s *Store) getLocked(app, workload string) (*analyzer.Profile, error) {
	p, err := analyzer.LoadProfile(s.path(Key{App: app, Workload: workload}))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, app, workload)
		}
		return nil, err
	}
	return p, nil
}

// Delete removes a stored profile. Deleting a missing profile returns
// ErrNotFound.
func (s *Store) Delete(app, workload string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(Key{App: app, Workload: workload}))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, app, workload)
	}
	return err
}

// List returns the keys of every stored profile, sorted.
func (s *Store) List() ([]Key, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.profile.json"))
	if err != nil {
		return nil, fmt.Errorf("profilestore: %w", err)
	}
	keys := make([]Key, 0, len(paths))
	for _, path := range paths {
		p, err := analyzer.LoadProfile(path)
		if err != nil {
			return nil, fmt.Errorf("profilestore: corrupt entry %s: %w", filepath.Base(path), err)
		}
		keys = append(keys, Key{App: p.App, Workload: p.Workload})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys, nil
}

// AuditEntry is one stored file's health as seen by Audit.
type AuditEntry struct {
	// File is the entry's base name.
	File string
	// Key identifies the profile; zero when the entry is corrupt.
	Key Key
	// Err is the load failure, empty for a healthy entry.
	Err string
}

// AuditReport is the result of scanning a store.
type AuditReport struct {
	Entries []AuditEntry
	Corrupt int
}

// Audit loads every stored entry and reports its health instead of failing
// on the first corrupt one. The error is non-nil only when the store
// directory itself cannot be scanned.
func (s *Store) Audit() (*AuditReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auditLocked()
}

func (s *Store) auditLocked() (*AuditReport, error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.profile.json"))
	if err != nil {
		return nil, fmt.Errorf("profilestore: %w", err)
	}
	sort.Strings(paths)
	rep := &AuditReport{}
	for _, path := range paths {
		e := AuditEntry{File: filepath.Base(path)}
		p, err := analyzer.LoadProfile(path)
		if err != nil {
			e.Err = err.Error()
			rep.Corrupt++
		} else {
			e.Key = Key{App: p.App, Workload: p.Workload}
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}

// evidenceEntry is the on-disk form of one instance's evidence: the
// uploaded profile plus the instance id it replaces-per, which the
// sanitized file name cannot carry losslessly. Stamp is the replication
// version (see stamp.go); nil on documents written with the zero stamp,
// which decode as the zero Stamp and lose every tiebreak.
type evidenceEntry struct {
	Instance string            `json:"instance"`
	Stamp    *Stamp            `json:"stamp,omitempty"`
	Profile  *analyzer.Profile `json:"profile"`
}

// evidenceDir holds per-instance evidence, separate from the merged
// plans so *.profile.json globs (List, Audit, polm2-inspect) see only
// plans.
func (s *Store) evidenceDir() string { return filepath.Join(s.dir, "evidence") }

// evidenceHash fingerprints the raw (app, workload, instance) triple so
// triples that sanitize identically still map to distinct files.
func evidenceHash(k Key, instance string) string {
	h := fnv.New32a()
	h.Write([]byte(k.App))
	h.Write([]byte{0})
	h.Write([]byte(k.Workload))
	h.Write([]byte{0})
	h.Write([]byte(instance))
	return fmt.Sprintf("%08x", h.Sum32())
}

// evidencePath names one instance's evidence document: the key's plan
// name stem, then the sanitized instance and the triple's fingerprint.
func (s *Store) evidencePath(k Key, instance string) string {
	name := sanitize(k.App) + "__" + sanitize(k.Workload) + "-" + keyHash(k) + "__" +
		sanitize(instance) + "-" + evidenceHash(k, instance) + ".evidence.json"
	return filepath.Join(s.evidenceDir(), name)
}

// PutEvidenceStamped stores one instance's latest evidence for the
// profile's (App, Workload) together with its replication stamp, replacing
// that instance's previous upload — the last-write-wins-per-instance model
// that keeps fleet aggregation idempotent under cumulative re-uploads and
// retried requests. The zero stamp writes an unstamped (legacy) document,
// which never replicates.
func (s *Store) PutEvidenceStamped(instance string, stamp Stamp, p *analyzer.Profile) error {
	if instance == "" {
		return fmt.Errorf("profilestore: evidence must carry an instance id")
	}
	if p.App == "" || p.Workload == "" {
		return fmt.Errorf("profilestore: evidence must carry App and Workload labels")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("profilestore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(s.evidenceDir(), 0o755); err != nil {
		return fmt.Errorf("profilestore: %w", err)
	}
	entry := evidenceEntry{Instance: instance, Profile: p}
	if !stamp.IsZero() {
		entry.Stamp = &stamp
	}
	data, err := Encode(entry)
	if err != nil {
		return fmt.Errorf("profilestore: encoding evidence: %w", err)
	}
	return s.publish(s.evidencePath(Key{App: p.App, Workload: p.Workload}, instance), data)
}

// Evidence loads every instance's latest evidence for (app, workload),
// keyed by instance id. A key with no evidence returns an empty map.
func (s *Store) Evidence(app, workload string) (map[string]*analyzer.Profile, error) {
	all, err := s.EvidenceAll()
	if err != nil {
		return nil, err
	}
	docs := all[Key{App: app, Workload: workload}]
	out := make(map[string]*analyzer.Profile, len(docs))
	for instance, d := range docs {
		out[instance] = d.Profile
	}
	return out, nil
}

// evidenceAllLocked scans every evidence document, validating each, and
// groups the latest per (key, instance).
func (s *Store) evidenceAllLocked() (map[Key]map[string]EvidenceDoc, error) {
	paths, err := filepath.Glob(filepath.Join(s.evidenceDir(), "*.evidence.json"))
	if err != nil {
		return nil, fmt.Errorf("profilestore: %w", err)
	}
	out := make(map[Key]map[string]EvidenceDoc)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("profilestore: reading evidence: %w", err)
		}
		var e evidenceEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("profilestore: corrupt evidence %s: %w", filepath.Base(path), err)
		}
		if e.Instance == "" || e.Profile == nil {
			return nil, fmt.Errorf("profilestore: corrupt evidence %s: missing instance or profile", filepath.Base(path))
		}
		if err := e.Profile.Validate(); err != nil {
			return nil, fmt.Errorf("profilestore: corrupt evidence %s: %w", filepath.Base(path), err)
		}
		k := Key{App: e.Profile.App, Workload: e.Profile.Workload}
		if out[k] == nil {
			out[k] = make(map[string]EvidenceDoc)
		}
		var st Stamp
		if e.Stamp != nil {
			st = *e.Stamp
		}
		out[k][e.Instance] = EvidenceDoc{Profile: e.Profile, Stamp: st}
	}
	return out, nil
}

// rolloutPath names the rollout-controller document for one key. The
// suffix keeps it out of every *.profile.json glob.
func (s *Store) rolloutPath(k Key) string {
	name := sanitize(k.App) + "__" + sanitize(k.Workload) + "-" + keyHash(k) + ".rollout.json"
	return filepath.Join(s.dir, name)
}

// PutRollout stores the canary-rollout controller document for (app,
// workload) — an opaque JSON payload owned by the planserver — through the
// same publish as profiles, fault injector included, so a crash mid-write
// leaves the previous document intact.
func (s *Store) PutRollout(app, workload string, doc []byte) error {
	if app == "" || workload == "" {
		return fmt.Errorf("profilestore: rollout document must carry app and workload")
	}
	if !json.Valid(doc) {
		return fmt.Errorf("profilestore: rollout document is not valid JSON")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publish(s.rolloutPath(Key{App: app, Workload: workload}), append(bytes.TrimRight(doc, "\n"), '\n'))
}

// Rollout loads the rollout document for (app, workload); ErrNotFound when
// none has been stored.
func (s *Store) Rollout(app, workload string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.rolloutPath(Key{App: app, Workload: workload}))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: rollout state for %s/%s", ErrNotFound, app, workload)
	}
	if err != nil {
		return nil, fmt.Errorf("profilestore: reading rollout state: %w", err)
	}
	return data, nil
}

// Select returns the profile for the estimated workload, falling back to
// the application's only profile when the estimate has none and exactly one
// other is stored (launching with a related profile beats launching
// uninstrumented; §3.5 leaves the selection policy to the operator).
// Corrupt entries are skipped, not fatal: a damaged store degrades to
// whatever healthy profiles remain.
func (s *Store) Select(app, estimatedWorkload string) (*analyzer.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.getLocked(app, estimatedWorkload)
	if err == nil {
		return p, nil
	}
	// The exact entry is missing or corrupt: fall back over the healthy
	// remainder.
	audit, auditErr := s.auditLocked()
	if auditErr != nil {
		return nil, auditErr
	}
	var candidates []Key
	for _, e := range audit.Entries {
		if e.Err == "" && e.Key.App == app {
			candidates = append(candidates, e.Key)
		}
	}
	if len(candidates) == 1 {
		return s.getLocked(candidates[0].App, candidates[0].Workload)
	}
	if !errors.Is(err, ErrNotFound) {
		// The exact entry exists but is corrupt and no unambiguous
		// fallback remains: surface the corruption.
		return nil, err
	}
	return nil, fmt.Errorf("%w: %s/%s (stored for %s: %d profiles)",
		ErrNotFound, app, estimatedWorkload, app, len(candidates))
}
