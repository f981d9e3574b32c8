//go:build !kddbug_lsraid

package lsraid

// bugSummaryFirst is the log's mutation switch, on its own build tag
// (kddbug_lsraid) so the checker's self-test proves it alone: commitRow
// flips the mapping and appends the segment summary BEFORE the row's
// member writes, so a crash mid-stripe leaves NVRAM naming pages the
// members never received. Production builds compile it away.
const bugSummaryFirst = false
