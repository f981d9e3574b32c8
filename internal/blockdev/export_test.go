package blockdev

import "testing"

// PoisonRecycled makes every buffer PutBuf takes back and every page
// PutPage takes back (a MemStore's trimmed pages included) be overwritten
// with 0xDB for the rest of the test. Not for parallel tests: the switch
// is a plain package variable.
func PoisonRecycled(t testing.TB) {
	poisonRecycled = true
	t.Cleanup(func() { poisonRecycled = false })
}
