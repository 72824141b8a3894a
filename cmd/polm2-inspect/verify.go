package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// verifyArtifacts checks the integrity of a POLM2 artifact directory: a
// records directory (sites.tsv + site-*.bin), a snapshot image directory
// (snap-*.img), or a parent holding records/ and snaps/ subdirectories.
// Every artifact is decoded with the salvage readers, so damage is
// reported, never fatal. Returns whether everything was intact.
func verifyArtifacts(w io.Writer, dir string) (bool, error) {
	recDir, snapDir, err := locateArtifacts(dir)
	if err != nil {
		return false, err
	}
	if recDir == "" && snapDir == "" {
		return false, fmt.Errorf("no POLM2 artifacts under %s (want sites.tsv, site-*.bin or snap-*.img)", dir)
	}
	clean := true
	if recDir != "" {
		ok, err := verifyRecords(w, recDir)
		if err != nil {
			return false, err
		}
		clean = clean && ok
	}
	if snapDir != "" {
		ok, err := verifySnapshots(w, snapDir)
		if err != nil {
			return false, err
		}
		clean = clean && ok
	}
	if clean {
		fmt.Fprintln(w, "verdict: all artifacts intact")
	} else {
		fmt.Fprintln(w, "verdict: damage found (salvage analysis still possible)")
	}
	return clean, nil
}

// locateArtifacts resolves the records and snapshot directories under dir.
func locateArtifacts(dir string) (recDir, snapDir string, err error) {
	if _, err := os.Stat(dir); err != nil {
		return "", "", err
	}
	for _, cand := range []string{dir, filepath.Join(dir, "records")} {
		if _, err := os.Stat(filepath.Join(cand, recorder.SiteTableFile)); err == nil {
			recDir = cand
			break
		}
		if sites, _ := recorder.Streams(cand); len(sites) > 0 {
			recDir = cand
			break
		}
	}
	for _, cand := range []string{dir, filepath.Join(dir, "snaps"), filepath.Join(dir, "snapshots")} {
		if imgs, _ := filepath.Glob(filepath.Join(cand, "snap-*.img")); len(imgs) > 0 {
			snapDir = cand
			break
		}
	}
	return recDir, snapDir, nil
}

func verifyRecords(w io.Writer, dir string) (bool, error) {
	clean := true
	if _, err := os.Stat(filepath.Join(dir, recorder.SiteTableFile)); err == nil {
		_, tsal, err := recorder.SalvageSiteTable(dir)
		if err != nil {
			return false, err
		}
		if tsal.Complete {
			fmt.Fprintf(w, "site table: v%d complete, %d sites\n", recorder.SiteTableVersion, tsal.Sites)
		} else {
			clean = false
			fmt.Fprintf(w, "site table: v%d DAMAGED, %d sites recovered (%s)\n", recorder.SiteTableVersion, tsal.Sites, tsal.Reason)
		}
	} else {
		clean = false
		fmt.Fprintln(w, "site table: MISSING")
	}

	sites, err := recorder.Streams(dir)
	if err != nil {
		return false, err
	}
	committed, live, damaged := 0, 0, 0
	for _, site := range sites {
		st, sal, err := recorder.SalvageIDs(dir, site)
		if err != nil {
			damaged++
			fmt.Fprintf(w, "stream site-%06d.bin: UNREADABLE (%v)\n", site, err)
			continue
		}
		switch {
		case sal.LostBytes > 0:
			damaged++
			fmt.Fprintf(w, "stream site-%06d.bin: v%d DAMAGED, %d ids salvaged, %d of %d bytes lost (%s)\n",
				site, recorder.StreamVersion, st.Len(), sal.LostBytes, sal.TotalBytes, sal.Reason)
		case sal.Complete:
			committed++
		default:
			live++
		}
	}
	if damaged > 0 {
		clean = false
	}
	fmt.Fprintf(w, "streams: v%d, %d committed, %d live (no trailer), %d damaged\n",
		recorder.StreamVersion, committed, live, damaged)
	return clean, nil
}

func verifySnapshots(w io.Writer, dir string) (bool, error) {
	snaps, sal, err := snapshot.ReadDirSalvage(dir)
	if err != nil {
		return false, err
	}
	for _, name := range sal.Dropped {
		fmt.Fprintf(w, "image %s: DROPPED\n", name)
	}
	fmt.Fprintf(w, "snapshots: v%d, %d/%d usable\n", snapshot.ImageVersion, sal.Usable, sal.Total)
	if len(snaps) > 0 {
		// The usable chain must replay; a replay failure is real damage
		// the per-image checks cannot see.
		store := snapshot.NewStore()
		for _, s := range snaps {
			if err := store.Apply(s); err != nil {
				fmt.Fprintf(w, "replay: FAILED at seq %d: %v\n", s.Seq, err)
				return false, nil
			}
		}
		fmt.Fprintf(w, "replay: ok, %d live objects after seq %d\n",
			len(store.LiveIDs()), snaps[len(snaps)-1].Seq)
	}
	return sal.Clean(), nil
}
