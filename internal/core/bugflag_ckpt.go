//go:build !kddbug_checkpoint

package core

// bugCheckpointAhead is the rebuild pump's mutation switch, on its own
// build tag (kddbug_checkpoint) so the checker's self-test proves it
// alone: the pump persists the watermark a step will reach BEFORE it runs
// the step (RebuildPump.Turn). Production builds compile it away.
const bugCheckpointAhead = false
