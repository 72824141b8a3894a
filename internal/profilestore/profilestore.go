// Package profilestore manages a repository of allocation profiles, one per
// (application, workload) pair — the deployment model §3.5 of the paper
// describes: "it is possible to create multiple allocation profiles for the
// same application, one for each possible workload. Then, whenever the
// application is launched in the production phase, one allocation profile
// can be chosen according to the estimated workload."
//
// A store holds one kind of profile record, an evidence document per
// (application, workload, instance), and a key's plan has one definition,
// Get: the merge of the key's evidence (Plan). An offline seed — the
// profile polm2-profile stores with Put — is the key's SeedInstance
// document, merged like any instance's.
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
	"polm2/internal/jvm"
)

// ErrNotFound reports a missing profile.
var ErrNotFound = errors.New("profilestore: profile not found")

// Key identifies one stored profile.
type Key struct {
	App      string
	Workload string
}

func (k Key) String() string { return k.App + "/" + k.Workload }

// Store is an on-disk profile repository: evidence documents under
// <dir>/evidence and one rollout document per key beside them. Every file
// of a key is named from its stem, <app>__<workload>-<hash>, where <hash>
// fingerprints the raw key so two keys that sanitize to the same text
// cannot overwrite each other.
type Store struct {
	dir string

	mu sync.Mutex
	// fault optionally interposes on the store's writes (polm2d -faults);
	// nil writes straight through.
	fault *faultio.Injector
}

// PlanFileError is Open's refusal of a directory that holds a plan file
// (*.profile.json). The store reads no such file: an offline seed is
// stored as its key's SeedInstance evidence, and a daemon derives every
// plan from the evidence, so serving beside a plan file would silently
// ignore it.
type PlanFileError struct {
	// File is the path of the first plan file found.
	File string
}

func (e *PlanFileError) Error() string {
	return fmt.Sprintf("profilestore: %s is a plan file, which this store does not read: "+
		"re-store the profile with polm2-profile -store, or delete the file if an older polm2d "+
		"left it (the key's plan is the merge of its evidence)", e.File)
}

// Open opens (creating if needed) a store rooted at dir. A directory
// holding a plan file is refused with a *PlanFileError.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profilestore: %w", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.profile.json")); len(files) > 0 {
		return nil, &PlanFileError{File: files[0]}
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

// stem is the file-name prefix every file of key k starts with.
func stem(k Key) string {
	return sanitize(k.App) + "__" + sanitize(k.Workload) + "-" + keyHash(k)
}

// SeedInstance is the reserved instance id of a key's offline seed. Put
// stores a profile as this instance's unstamped evidence, so the seed
// merges into the key's plan like any instance's document and never
// replicates (an unstamped document loses every stamp comparison).
const SeedInstance = "__seed__"

// Put stores a profile as its App/Workload key's offline seed: the
// unstamped evidence document of SeedInstance, replacing the key's
// previous seed and nothing else. A profile without site evidence is
// refused, since its plan would re-derive empty, and so is one the plan
// daemon would not admit as an upload (CheckEvidence).
func (s *Store) Put(p *analyzer.Profile) error {
	if len(p.Sites) == 0 {
		return fmt.Errorf("profilestore: profile %s/%s carries no site evidence to derive a plan from", p.App, p.Workload)
	}
	if err := CheckEvidence(p); err != nil {
		return fmt.Errorf("profilestore: %w", err)
	}
	return s.PutEvidenceStamped(SeedInstance, Stamp{}, p)
}

// CheckEvidence salvage-checks an evidence document beyond Validate:
// every site's evidence must be internally consistent, so a mangled or
// hand-damaged document cannot poison the fleet merge. This is the full
// precondition for mergeability — labels present, every trace parseable,
// tainted within allocated, buckets summing to the allocation total —
// which the plan daemon applies to every upload and pulled document, and
// Put to every seed. It is what lets the merge pipeline classify any
// later merge failure as server-side without re-merging anything: a
// document that passes here cannot be the profile a fold chokes on.
func CheckEvidence(p *analyzer.Profile) error {
	if p.App == "" || p.Workload == "" {
		return fmt.Errorf("evidence must carry app and workload labels")
	}
	for _, site := range p.Sites {
		if _, err := jvm.ParseStackTrace(site.Trace); err != nil {
			return fmt.Errorf("site %q: %w", site.Trace, err)
		}
		if site.Tainted > site.Allocated {
			return fmt.Errorf("site %q: tainted %d exceeds allocated %d", site.Trace, site.Tainted, site.Allocated)
		}
		var sum uint64
		for _, n := range site.Buckets {
			sum += n
		}
		if sum != site.Allocated {
			return fmt.Errorf("site %q: survival buckets sum to %d, allocated %d", site.Trace, sum, site.Allocated)
		}
	}
	return nil
}

// Encode renders v in the store's on-disk form, which is also the daemon's
// plan encoding: compact JSON and a newline. The SHA-256 of a plan's
// encoding is the ETag the daemon serves it under.
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

// Plan is key k's plan over its evidence documents: their merge, labeled
// with k. The store's Get and the plan daemon's merge worker both derive a
// plan through it. For a profile core.ProfileApp writes, Plan(k, p) encodes
// to p's own bytes, so a seed alone is served as it was stored.
func Plan(k Key, evidence ...*analyzer.Profile) (*analyzer.Profile, error) {
	return analyzer.MergeProfiles(analyzer.Options{App: k.App, Workload: k.Workload}, evidence...)
}

// Get returns the plan for the exact (app, workload) pair: the merge of the
// key's evidence. ErrNotFound means the key has none; a document of the
// key that does not decode fails the read.
func (s *Store) Get(app, workload string) (*analyzer.Profile, error) {
	docs, err := s.Evidence(app, workload)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, app, workload)
	}
	evidence := make([]*analyzer.Profile, 0, len(docs))
	for _, p := range docs {
		evidence = append(evidence, p)
	}
	return Plan(Key{App: app, Workload: workload}, evidence...)
}

// List returns every key Get has a plan for — each key with evidence —
// sorted. A document that does not decode fails the listing.
func (s *Store) List() ([]Key, error) { return s.keys(false) }

// keys is List; skipCorrupt leaves a document that does not decode out
// instead of failing.
func (s *Store) keys(skipCorrupt bool) ([]Key, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all, audit, err := s.evidenceLocked("*.evidence.json")
	if err != nil {
		return nil, err
	}
	if !skipCorrupt {
		if err := audit.err(); err != nil {
			return nil, err
		}
	}
	keys := make([]Key, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys, nil
}

// AuditEntry is one stored evidence document's health as seen by Audit.
type AuditEntry struct {
	// File is the document's base name.
	File string
	// Key identifies the document's key; zero when the entry is corrupt.
	Key Key
	// Err is the decode failure, empty for a healthy entry.
	Err string
}

// AuditReport is the result of scanning a store's evidence documents.
type AuditReport struct {
	Entries []AuditEntry
	Corrupt int
}

// err is the failure a strict read reports for the report's first corrupt
// document; nil when every document decoded.
func (r *AuditReport) err() error {
	for _, e := range r.Entries {
		if e.Err != "" {
			return fmt.Errorf("profilestore: corrupt evidence %s: %s", e.File, e.Err)
		}
	}
	return nil
}

// Audit decodes every stored evidence document and reports its health
// instead of failing on the first corrupt one. The error is non-nil only
// when the store cannot be read.
func (s *Store) Audit() (*AuditReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, audit, err := s.evidenceLocked("*.evidence.json")
	return audit, err
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

// evidenceDir holds the per-instance evidence documents.
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

// evidencePath names one instance's evidence document: the key's stem,
// then the sanitized instance and the triple's fingerprint.
func (s *Store) evidencePath(k Key, instance string) string {
	name := stem(k) + "__" + sanitize(instance) + "-" + evidenceHash(k, instance) + ".evidence.json"
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
// keyed by instance id. It reads only the documents named under the key's
// stem, and of those only the ones labeled with the key: a longer key can
// share the stem. A key with no evidence returns an empty map; a document
// under the stem that does not decode fails the read.
func (s *Store) Evidence(app, workload string) (map[string]*analyzer.Profile, error) {
	k := Key{App: app, Workload: workload}
	s.mu.Lock()
	defer s.mu.Unlock()
	grouped, audit, err := s.evidenceLocked(stem(k) + "__*.evidence.json")
	if err == nil {
		err = audit.err()
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]*analyzer.Profile, len(grouped[k]))
	for instance, d := range grouped[k] {
		out[instance] = d.Profile
	}
	return out, nil
}

// evidenceLocked reads the evidence documents whose names match pattern
// and groups the ones that decode and validate per (key, instance) by
// their labels. Every document is audited: one that does not decode is
// left out of the groups and reported corrupt in the audit. Only a
// failure to read the store fails the scan.
func (s *Store) evidenceLocked(pattern string) (map[Key]map[string]EvidenceDoc, *AuditReport, error) {
	paths, err := filepath.Glob(filepath.Join(s.evidenceDir(), pattern))
	if err != nil {
		return nil, nil, fmt.Errorf("profilestore: %w", err)
	}
	out := make(map[Key]map[string]EvidenceDoc)
	audit := &AuditReport{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("profilestore: reading evidence: %w", err)
		}
		e, err := decodeEvidence(data)
		if err != nil {
			audit.Entries = append(audit.Entries, AuditEntry{File: filepath.Base(path), Err: err.Error()})
			audit.Corrupt++
			continue
		}
		k := Key{App: e.Profile.App, Workload: e.Profile.Workload}
		audit.Entries = append(audit.Entries, AuditEntry{File: filepath.Base(path), Key: k})
		if out[k] == nil {
			out[k] = make(map[string]EvidenceDoc)
		}
		var st Stamp
		if e.Stamp != nil {
			st = *e.Stamp
		}
		out[k][e.Instance] = EvidenceDoc{Profile: e.Profile, Stamp: st}
	}
	return out, audit, nil
}

// decodeEvidence decodes and validates one evidence document.
func decodeEvidence(data []byte) (*evidenceEntry, error) {
	var e evidenceEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if e.Instance == "" || e.Profile == nil {
		return nil, errors.New("missing instance or profile")
	}
	if err := e.Profile.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// rolloutPath names the rollout-controller document for one key.
func (s *Store) rolloutPath(k Key) string {
	return filepath.Join(s.dir, stem(k)+".rollout.json")
}

// PutRollout stores the canary-rollout controller document for (app,
// workload) — an opaque JSON payload owned by the planserver — through the
// same publish as evidence, fault injector included, so a crash mid-write
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
// The candidates are List's keys. Corrupt evidence documents are skipped,
// not fatal: a damaged store degrades to whatever healthy profiles remain.
func (s *Store) Select(app, estimatedWorkload string) (*analyzer.Profile, error) {
	p, err := s.Get(app, estimatedWorkload)
	if err == nil {
		return p, nil
	}
	// The exact entry is missing or corrupt: fall back over the healthy
	// remainder.
	keys, keysErr := s.keys(true)
	if keysErr != nil {
		return nil, keysErr
	}
	var candidates []Key
	for _, k := range keys {
		if k.App == app {
			candidates = append(candidates, k)
		}
	}
	if len(candidates) == 1 {
		return s.Get(candidates[0].App, candidates[0].Workload)
	}
	if !errors.Is(err, ErrNotFound) {
		// The exact entry exists but is corrupt and no unambiguous
		// fallback remains: surface the corruption.
		return nil, err
	}
	return nil, fmt.Errorf("%w: %s/%s (stored for %s: %d profiles)",
		ErrNotFound, app, estimatedWorkload, app, len(candidates))
}
