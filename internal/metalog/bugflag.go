//go:build !kddbug

package metalog

// bugBatchAckEarly is the shard-plane mutation switch for the checker's
// self-test: the kddbug build tag flips it to true, making FlushBatch
// remove entries from the NVRAM metadata buffer BEFORE the page holding
// them is durable — acking the batch ahead of the barrier. A crash on
// that write ordinal then loses the mappings of already-acked
// operations, the exact failure the NVRAM-until-durable rule prevents.
// The shard mutation test proves internal/check catches the violation;
// production builds compile the constant false and the bugged path away.
const bugBatchAckEarly = false
