//go:build !kddbug_idle

package core

// bugReclaimAtPlan is the idle queue's mutation switch, on its own build
// tag (kddbug_idle) so the checker's self-test proves it alone: planIdle
// reclaims a planned row's Old pages when it queues the row, not after
// the row's parity repair. Production builds compile it away.
const bugReclaimAtPlan = false
