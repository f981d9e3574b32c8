//go:build kddbug

package metalog

// Mutation build: FlushBatch acks the batch (entries leave NVRAM) before
// its page is durable. See bugflag.go.
const bugBatchAckEarly = true
