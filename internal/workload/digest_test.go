package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigests pins the SHA-256 of the first digestLen instructions of
// every generator, encoded by streamDigest. Any change to the emitted
// stream, however small, fails here in well under a second, long before
// the experiment goldens that depend on it would notice. Regenerate only
// when a stream change is intended: run with -v and copy the logged
// digests.
var streamDigests = map[string]string{
	"bzip2":    "a36a3ca40e9635be8d1daf87aeff7d85b2375630b2dcefcb112fe8d3d149050a",
	"crafty":   "d147182aa5c3d5f259d1e6ff8a38d2f01d03cdae9fbae7f31b606093563161fb",
	"eon":      "0f02f713e817bb648336e3f60629b210ce6c6f639ea36259ba73cf6b1a28583d",
	"gap":      "a0d762d53763152e16d8d6e2c9813808835e70ea7920cf15a7d577a4ccd62422",
	"gcc":      "7263d008caabbd4da3511553589dce6659ae6f95061bdf96ef7b9325d7f79f4c",
	"gzip":     "db36171e70ee1c98dea816e8f828f62666d86d474baa0b03e5b63c2eaf5cf818",
	"mcf":      "d0f3730abf641922d5e5b9ab6f4991d2c6661ecc714920a4bcaf404b7eed1220",
	"parser":   "6236dc50fe8466495befc074fa008ed29b754fea81944216eaefe7f9d0d7de54",
	"perlbmk":  "46a4a223d5e7a4994418dcbf8ca86daee5ac5f175fa1cee16374fe99f7734e62",
	"twolf":    "c47af895822c29fa08d559028c0aae7b73adc194d3dc6a82c9b787a48cd65ab0",
	"vortex":   "8a5fdd7d2e717964123365f683923e82b066478999101a5af830a2a4f2d49bf4",
	"vpr":      "8e9ea2c302cdfdb738446382af944fbdd98a1e7a84fc83e6561b3448784a84d7",
	"ammp":     "5e73ecb14bc9c5f01c22979fa51a20f6e3f37cbb86657f1b9d70233bd944d330",
	"applu":    "c8db8a738a73770e543fca355cc8bd83fa940bd9173089ecf8ad02375e0d1eeb",
	"apsi":     "4445b67eba5d872efb6b254500651c4a5fd5e731d317fa5bdcd33fe1cb4a0d78",
	"art":      "0567b26a15f7d0e932b8ebc28999ae733f761ad236477654bcefc0565bf104ef",
	"equake":   "31aba95d8753363ef4a449a584752dcb27b10739b0523eeb74c438051b3006f8",
	"facerec":  "4ae5ef9faba7aad05e53e4278fe7c313e46fd794396580c6f9184c98a42a68f7",
	"fma3d":    "3e5030c9bb2cc9edc2395a5ba9c3f1bc5b5c1fd3589d9cfabca238a38806bca0",
	"galgel":   "7b0cbe73cb623acaca8464b828c4e058cfdc469a90da1190f9ace36ddbf77f93",
	"lucas":    "cd18a67b69d628f0e9b7ec08ef9303450749ca2f2ef39272e8db48d501f558ec",
	"mesa":     "6543c21605fbdf5b76b583c9edde39250dc7f3e2e95028d867efe202e3071026",
	"mgrid":    "4058860d8f3e6e1870623732525fe1156fba1d11d24300589781edab63819854",
	"sixtrack": "e1e6bf99bbb50af7e4db0996b7d8ad0fb6e63d78b7aa9957dc8f8d46ed5dbcc7",
	"swim":     "21d313973acb62fa05fa1b21cd980987e3a20f289389956cfa933aea8463d1ad",
	"wupwise":  "7539d94f967c453f34c882a9f1feda98f343a6a41c56b752ddcbfa48fdb51e42",
}

const digestLen = 100_000

func TestStreamDigests(t *testing.T) {
	names := Names()
	if len(streamDigests) != len(names) {
		t.Errorf("%d pinned digests for %d generators", len(streamDigests), len(names))
	}
	for _, name := range names {
		got := streamDigest(MustNew(name), digestLen)
		t.Logf("%q: %q,", name, got)
		if want := streamDigests[name]; got != want {
			t.Errorf("%s: first %d instructions digest to %s, pinned %s", name, digestLen, got, want)
		}
	}
}

// streamDigest hashes the next n instructions of b, field by field in
// declaration order, little-endian.
func streamDigest(b *Benchmark, n int) string {
	h := sha256.New()
	var buf [22]byte
	for i := 0; i < n; i++ {
		in := b.Next()
		binary.LittleEndian.PutUint64(buf[0:], in.PC)
		buf[8] = byte(in.Op)
		buf[9] = byte(in.Dest)
		buf[10] = byte(in.Src1)
		buf[11] = byte(in.Src2)
		binary.LittleEndian.PutUint64(buf[12:], in.Addr)
		buf[20] = boolByte(in.Taken)
		buf[21] = boolByte(in.ChainLoad)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
