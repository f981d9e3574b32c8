//go:build !kddbug_lsraid_gc

package lsraid

// bugFreeVictimFirst is segment GC's mutation switch, on its own build
// tag (kddbug_lsraid_gc) so the checker's self-test proves it alone:
// collect returns the victim to the free list BEFORE staging its swept
// pages, so the copy-forward can reopen the victim and overwrite rows
// the map still names. Production builds compile it away.
const bugFreeVictimFirst = false
