package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// pinnedDigests is the SHA-256 of the COMATRC2 encoding of every registry
// trace (Registry and Extras) at 8, 16 and 64 processors. The bytes are
// the builder's exact output, so a change to how the builder stores or
// packs records that alters even one op word — or a kernel change that
// alters one reference — fails here. Regenerating these means the traces
// changed, which re-pins every result downstream of them.
var pinnedDigests = map[string]string{
	"barnes/8":       "d4ca0a7a99ede883c446d8a8ecd6a5cd2456eb1ea91b3cb0a531d821d3263bf4",
	"barnes/16":      "33db1fa3f9af87a51b64f0e7a65cac30560bc95659de32b7b5f348856484582c",
	"barnes/64":      "c44aa755fb870942a0b7ba9b918bd5cba2b9aacc107a454df59a15e7c60c3d85",
	"cholesky/8":     "75b79bcaee9cd861e650c431a48e8d838715a4a16b2bb41bfca61f68c16dd4bc",
	"cholesky/16":    "bcb0f7e4c1c8d919beb00d9dc7796918081a3db8f7e8010624170ffbc8c60cc2",
	"cholesky/64":    "354bfdf50e19f24bbca205e8673dba63636583cb9650591fb0ed421d0224b2ba",
	"fft/8":          "9a5d50fb20d8ceba95eff21f5979cab1489894910a75e3b8825784f0b07acf9e",
	"fft/16":         "fa12a97b5493934b86280b978fb8591af284e968392b1ee7f6eab4a49247d1cf",
	"fft/64":         "15d47f3f37ea1c2fa04517e444972cb8db634e85debb1d061d5b7d68bd644716",
	"fmm/8":          "1bc3c047af5e3e2786a7c041e3a893d767ee6188a0c36e784d2a4089256c6280",
	"fmm/16":         "b1e4f620db65d6de21b8733e99c194014881d311a4a715fc762885896f4dfe3d",
	"fmm/64":         "c07a9c7a701eb98c97d1898a7569ffac178f5b2c4fccd8368bf782dd20963a2d",
	"lu-c/8":         "61ed0da4a03de7d15f848425de8de393a13ae3dc45d3f8c84e499c4d47ccfff1",
	"lu-c/16":        "bec738897ed714dbd2b657ad898bdfd3b38cca7c0fb7255ab0bdd73aebdeb2f8",
	"lu-c/64":        "51edb29fd97edbdd47122bce45ad43e10382e2b7cde48a30b5e599a2b13610b4",
	"lu-n/8":         "fc8e256cbd402431b54a20efe521d2ba0274d3159d7606f7b9db661e6d4cfc4c",
	"lu-n/16":        "1390f38af7676c567767bbeb14d8090ddd4d5077273533598e301e915bdeae3e",
	"lu-n/64":        "70bc4e690eb985d16cfbd3d5819487c8181973017e4e0a10d13b3d1b54130f3b",
	"ocean-c/8":      "726bdd10635cb17e9fd290b1f9d52581fb0b809fb27e84d53bcb8690fdfd3d97",
	"ocean-c/16":     "72bbb48cc7dec35eecd3fec0efc669e1d86723d0589fc5b25edc089676f80191",
	"ocean-c/64":     "98e217bd24d1c0bb04a9507de1f2e4ecf1a7befed71522b85391de195f8a2cd7",
	"ocean-n/8":      "fe875cd47c80c9d0bccebe1a438fb15303f0e672d41e0aa4c1b89a7aa40f1fb9",
	"ocean-n/16":     "ad887a41865cb4f314d9f54daf1953008ed0b665aa5a2c312b49550b63392ac5",
	"ocean-n/64":     "405bd13b009923e1ee1488971b6d6450bebd2a8b06ad7cb2e474f131be7dc647",
	"radiosity/8":    "905564074b2b3c2053d919cc04c74172b2eadfa0d6f4b8c05636219ea6b253d3",
	"radiosity/16":   "0fdad8c3fbe656b8fbd0adf58b0a3f1f0016e4defdbded72b2c75411c2d2e799",
	"radiosity/64":   "1a9ec934b3bcf30dd2083d8d73a7554d6eb74b9e2a70415df8d0e8f0ee67fd6f",
	"radix/8":        "258993ac99b3be07dd6a53dde61350145fc7ee38f44453668b9adeb3ecec98e9",
	"radix/16":       "c26baa59a59f4bee3c6921227ee229da91d701b05b429486661bdad91fbc253f",
	"radix/64":       "f130d64804c861ac7d549158ed5b45fb003c4caaadc50ab0bbe2e450be17cf43",
	"raytrace/8":     "4b82886aae9a38c5a70d4881c28908362c5969e88e146e9b193e433a257cbf4f",
	"raytrace/16":    "948e0aec41fb1db8bd9c8ca817ac31e2dd878d24822b02c0699c2a3c95894f67",
	"raytrace/64":    "03b7618c59a7747e62bcf674c981267f0476f838c2111c521ece3f3fc307ca3c",
	"volrend/8":      "09cc443dcd86c3fda203405be52839440987c357ab78341b0459a0d3d94cace0",
	"volrend/16":     "80e7f6d9c013d57c358f7945c1d93cfbeca63ede7b8fd43c89c7ad270e3de41a",
	"volrend/64":     "38e6333c2fb31fc4bb2830a8b839827d37e72a46733719f0c394ce7a0332d2a4",
	"water-n2/8":     "6e0e16cfc7241da4ccf44ae00218b97681819e7a9108625b20f9e7cc04a321df",
	"water-n2/16":    "990739c821edbb487043afb6bc71893360534af524a2d189aade674262bdac33",
	"water-n2/64":    "ae7de7cf2c0bbd2c4ca76d5ab76e14cd2c6d91027e7f1ce20129c8c00ae59996",
	"water-sp/8":     "4b5b59368fd345b455c9fdf4a93d58c64b4abefb313c9f3b29abb79ebdbf0763",
	"water-sp/16":    "f48a0ae8ad1aabc261a9b78ed1894c8bd0dcc264baf9eda8a0ce63350f38b17c",
	"water-sp/64":    "fb66e22457449067961f0ec5a6d55cc8e759746d21e116856bc94b0f01211ac6",
	"graph-bfs/8":    "d12b41f5d7dee5f013d6c070a6c2fdc625b574bbb028540ffaaba7caf89e828f",
	"graph-bfs/16":   "22f373f72b19e9d068c7d96134b2f954fc83a5467766dea7c6a0a4c172a142e7",
	"graph-bfs/64":   "ac1058f1095cb65021d27fd3b547096b532507dabf08b4227a48751406339485",
	"pchase/8":       "e72e19fb42fbcf4b5cc8e437f82c4872361f60ced17c9575179f78663372aa03",
	"pchase/16":      "7e0c85acd1337ace9401e41c54d49fb6473c2189b7f1f0cb2c8055b57004274e",
	"pchase/64":      "5148b39b1696d1d6e442cf455ca87652a14694e5e5c56637b906572a51c3fb92",
	"alloc-churn/8":  "7c4add292485c63f0b4c03207b6bb6918c3d3f1f8a68bec970bfd876ff906759",
	"alloc-churn/16": "5fbc7e462de721fbac02135c5acae3155b509696b77dcb8caa3511adcc612db7",
	"alloc-churn/64": "4da46d7cd7f7868f4e42a298131ceee40633e1e51cfe6f1cf9af499e743409a6",
}

func compactDigest(tr *trace.Trace) string {
	sum := sha256.Sum256(tr.EncodeCompact())
	return hex.EncodeToString(sum[:])
}

func TestGenerationDigestsPinned(t *testing.T) {
	var got []string
	bad := 0
	for _, a := range All() {
		for _, procs := range []int{8, 16, 64} {
			key := fmt.Sprintf("%s/%d", a.Name, procs)
			d := compactDigest(a.Generate(procs))
			got = append(got, fmt.Sprintf("\t%q: %q,", key, d))
			if want, ok := pinnedDigests[key]; !ok || want != d {
				bad++
				t.Errorf("%s: COMATRC2 digest %s, pinned %q", key, d, want)
			}
		}
	}
	if bad > 0 {
		t.Logf("current digests:\n%s", strings.Join(got, "\n"))
	}
}

// TestRegistryTracesSpillOnlyLocks: every registry trace (extras
// included) at 8, 16 and 64 processors takes 4 bytes per record plus one
// 32-byte side slot per Acquire or Release record, so no generated
// record's payload is too wide for the in-memory word's 29 bits.
func TestRegistryTracesSpillOnlyLocks(t *testing.T) {
	for _, a := range All() {
		for _, procs := range []int{8, 16, 64} {
			tr := a.Generate(procs)
			records, locks := 0, 0
			for p := range tr.Streams {
				st := &tr.Streams[p]
				records += st.Len()
				for i := 0; i < st.Len(); i++ {
					if k := st.Kind(i); k == trace.Acquire || k == trace.Release {
						locks++
					}
				}
			}
			if got, want := tr.MemBytes(), 4*records+32*locks; got != want {
				t.Errorf("%s/%d: MemBytes %d, want 4*%d records + 32*%d locks = %d",
					a.Name, procs, got, records, locks, want)
			}
		}
	}
}
