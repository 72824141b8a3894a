// Evidence stamps: the logical version carried by every replicated
// evidence document. Each accepted upload advances the owning daemon's
// per-(key, instance) sequence, so a stamp totally orders the writes one
// daemon accepted; across daemons the origin id breaks ties
// deterministically, which is what makes last-write-wins anti-entropy
// (planserver GET /v1/sync) commutative — peers can apply the same set of
// documents in any order and converge to the same winner per instance.
package profilestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"polm2/internal/analyzer"
)

// Stamp is the logical version of one evidence document. The zero Stamp
// marks an unstamped document (a key's SeedInstance seed), which never
// replicates and orders before every stamped write.
type Stamp struct {
	// Seq is the daemon-assigned sequence. Every accepted direct upload
	// strictly advances it past the previous document's stamp, so the
	// sequence alone orders all writes a single daemon accepted.
	Seq uint64 `json:"seq"`
	// Origin is the accepting daemon's id, breaking cross-daemon ties
	// lexicographically. Empty for a single (unreplicated) daemon.
	Origin string `json:"origin"`
}

// IsZero reports whether the stamp is the unstamped zero value.
func (st Stamp) IsZero() bool { return st.Seq == 0 && st.Origin == "" }

// Less orders stamps by sequence, then origin — the total order the
// last-write-wins merge resolves conflicts with.
func (st Stamp) Less(other Stamp) bool {
	if st.Seq != other.Seq {
		return st.Seq < other.Seq
	}
	return st.Origin < other.Origin
}

// String renders the stamp as seq@origin, the wire and display form.
func (st Stamp) String() string { return fmt.Sprintf("%d@%s", st.Seq, st.Origin) }

// EvidenceDoc is one instance's stored evidence with its stamp: what the
// sync stamp list advertises and what a peer pulls.
type EvidenceDoc struct {
	Profile *analyzer.Profile
	Stamp   Stamp
}

// EvidenceAll scans the whole evidence directory and returns every stored
// document grouped by key, with stamps (unstamped documents carry the zero
// stamp) — the planserver's one read of its evidence log per lifetime.
// A document that does not decode is left out, so one damaged file fails
// no key, and is reported corrupt in the scan's audit.
func (s *Store) EvidenceAll() (map[Key]map[string]EvidenceDoc, *AuditReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evidenceLocked("*.evidence.json")
}

// KeySum is the order-independent 128-bit summary of one key's replicating
// (instance, stamp) pairs: the XOR of a truncated SHA-256 per pair. XOR
// makes it incremental — replacing a document's stamp is Toggle(old) then
// Toggle(new) — and independent of arrival order, so two replicas holding
// the same winners advertise the same sum whatever path the documents
// took. Zero-stamp (unstamped) documents never replicate and stay out of the
// sum. Two different stamp sets collide with probability 2^-128 per
// compare; a collision only delays a pull until the key's next write.
type KeySum [16]byte

// Toggle adds the pair to the sum, or removes it if it is already in.
// A zero stamp is a no-op, so callers need not special-case an absent or
// unstamped previous document.
func (k *KeySum) Toggle(instance string, st Stamp) {
	if st.IsZero() {
		return
	}
	// Instance is length-prefixed, seq is self-delimiting and origin is the
	// tail, so no two pairs share an encoding.
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(len(instance)))
	buf = append(buf, instance...)
	buf = binary.AppendUvarint(buf, st.Seq)
	buf = append(buf, st.Origin...)
	h := sha256.Sum256(buf)
	for i := range k {
		k[i] ^= h[i]
	}
}

// String renders the sum as 32 hex digits, the wire and display form.
func (k KeySum) String() string { return hex.EncodeToString(k[:]) }

// MarshalText implements encoding.TextMarshaler (the JSON form is String).
func (k KeySum) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, refusing anything but
// exactly 32 hex digits.
func (k *KeySum) UnmarshalText(text []byte) error {
	if len(text) != hex.EncodedLen(len(k)) {
		return fmt.Errorf("profilestore: key sum %q is not %d hex digits", text, hex.EncodedLen(len(k)))
	}
	_, err := hex.Decode(k[:], text)
	return err
}
