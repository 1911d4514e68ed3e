package core

import (
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/server"
)

// goldenCustomSpec is an inline custom server that exercises the renderer's
// edge cases: empty descriptive strings, a nil curve, a zero-length curve,
// a one-point curve and no L3.
func goldenCustomSpec() *server.Spec {
	return &server.Spec{
		Name:             "custom",
		ProcessorType:    "",
		Cores:            8,
		Chips:            2,
		FreqMHz:          2500,
		GFLOPSPerCore:    10,
		MemoryBytes:      8 << 30,
		MemBWBytesPerSec: 2.5e10,
		L1D:              cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:               cache.Config{Name: "", SizeBytes: 1 << 20, LineBytes: 64, Ways: 16},
		IdleWatts:        120.5,
		Coef:             server.Coeffs{Active: 1.25, CommPerCore: 0.5},
		HPLHalf:          server.AnchorCurve{},
		EP:               server.AnchorCurve{{N: 1, Value: 0.03}},
	}
}

// The canonical keys below were recorded from the fmt-based renderer. Every
// cached result, flight record and trace id is addressed by these bytes, so
// a renderer change that moves any of them invalidates every stored key.
var canonicalHashGolden = []struct {
	server, method, profile string
	seed                    float64
	key                     string
}{
	{"Xeon-E5462", "evaluate", "", 0, "9df33f47dea470fe3efabb9756902e4810bd3df139b8c689f62269f41163a532"},
	{"Xeon-E5462", "evaluate", "", 7, "b20cd7bb89cff29e9217c24e3f424f20e7725c6df0f8b334f172ef60b5059830"},
	{"Xeon-E5462", "evaluate", "", 1e+300, "f342105fe669811a08d30888a3c3e1ffcd628d4987cd5280a7c024fa90d7f947"},
	{"Xeon-E5462", "evaluate", "light", 0, "c3e9932cdf758117f084816e79fc6b49c076a7da6ee5f70c611d336fd655df77"},
	{"Xeon-E5462", "evaluate", "light", 7, "c121be178dbdfc8b02311f511efb2a58cbfb2829c7d4aa43880fdee85c72c35f"},
	{"Xeon-E5462", "evaluate", "light", 1e+300, "e862eb02183f7d4543fc872b4882c99d89aa9a573ec6176b87c391dae6854619"},
	{"Xeon-E5462", "green500", "", 0, "2a5b912f85574a8477c07d2102ae7bffdba587e673679d5998228411205619bc"},
	{"Xeon-E5462", "green500", "", 7, "e59c550193fc130cfdfd6e8bc9bec1ac24a79b9b4f78cec40395bdce516544fb"},
	{"Xeon-E5462", "green500", "", 1e+300, "0989096dc8c4ea934613afe7178188caf103c90078ccdf7b7aaf5a83e2d0eed2"},
	{"Xeon-E5462", "green500", "light", 0, "4398f457bec2cea7a9c235ba4f744c80c1a72369837844cbd1def8243075c87b"},
	{"Xeon-E5462", "green500", "light", 7, "61eec348c6984db1b71967ec076d359c396ac1ee0e45624c231d5bcadc09663a"},
	{"Xeon-E5462", "green500", "light", 1e+300, "c060611be58ce75ecfd97a40b00a2ed4b0b90bb68a49d854435acfc120c5f888"},
	{"Opteron-8347", "evaluate", "", 0, "8e5a93be99e6fcb6b07d680ba36162963033ce68205a23a3fc6f4e2e2f7c74f6"},
	{"Opteron-8347", "evaluate", "", 7, "791d2c6a256a29ff2f99e83e7af8f6ece5b2dce96ed1bcc4cd5f3fcd2a89b2fd"},
	{"Opteron-8347", "evaluate", "", 1e+300, "c128df6562eaadb0ae08e0d6c5c510854416940e67dd0dd873e9344b017605b4"},
	{"Opteron-8347", "evaluate", "light", 0, "52d5d3ace93df449d041310c3c69bf56e55ee821a173542af2617712daa4549d"},
	{"Opteron-8347", "evaluate", "light", 7, "c3b4b4db500291db82517aedd56c3f243727060de47e9b6a9efd9c782e142d70"},
	{"Opteron-8347", "evaluate", "light", 1e+300, "ac2c292e12fe60973c3f8e8b5aded1d714f19ec5fea227e2f02421d320111f9e"},
	{"Opteron-8347", "green500", "", 0, "ba472a219935b9e3ebe55b2dcb6e24fd403999ab545a9acc2b6c682f4f7ce7c3"},
	{"Opteron-8347", "green500", "", 7, "8982e40865092bc52d1dcebd08fe7b87b22be1eaafa5fdd12deedb8498dd8c42"},
	{"Opteron-8347", "green500", "", 1e+300, "22c48dac7e9a75105284fa81ad22d0522b5d964ed47a383c57e6befbed874dbc"},
	{"Opteron-8347", "green500", "light", 0, "6bede4b8b68cc8eb5f2ee431c0f10b1af79a6f977b6a22f887e55db7285cf751"},
	{"Opteron-8347", "green500", "light", 7, "a67347dbb8b2fd12526b5a27ac8bbf751648a60011174c0a7a13fdaac6ad339e"},
	{"Opteron-8347", "green500", "light", 1e+300, "4cb5f21c033ca9264156a3778469bdd53d26502fe2f92b551ad93744af92b9ab"},
	{"Xeon-4870", "evaluate", "", 0, "e8058a01a6aeb7bbc3fb0bd5c43eb724692bbf362dd23620fc76171928260913"},
	{"Xeon-4870", "evaluate", "", 7, "fc773da4b3ff07d48340173e4ceb083f599e4045f21e171d5da01563e78c1f97"},
	{"Xeon-4870", "evaluate", "", 1e+300, "cafdf921a8e4f478fd99707d9f1f83f59d86c8b62805b015bd0ca8f302c93eaf"},
	{"Xeon-4870", "evaluate", "light", 0, "e935e0a6b5a33316b45aa2d9b598b6cfa093b63d5aacb82deac521844a67da83"},
	{"Xeon-4870", "evaluate", "light", 7, "270f0a75cff02c7379445a5df7fd70ebb06f1e0aebaa875e2c583a5e8142686b"},
	{"Xeon-4870", "evaluate", "light", 1e+300, "f6b9ffcfbf24afce4de1c45d6292b125006b1fdccf93ae1f34191ab029a3c370"},
	{"Xeon-4870", "green500", "", 0, "76f73f17b70a42aaf07eee2aac68992d34c45cb0134f67e4e5ba4fa3b69d6220"},
	{"Xeon-4870", "green500", "", 7, "3392170c2f50d07f12ff729305c3af25c082078fcc45846c567602f0aee9f8e2"},
	{"Xeon-4870", "green500", "", 1e+300, "8cb30da49811387d8d09b5669319d771e99ddab95d178f82737a10449af1e135"},
	{"Xeon-4870", "green500", "light", 0, "dedcb8b55343f3430f199bed365da76e3a43b0c8cb70014922636bc08a123880"},
	{"Xeon-4870", "green500", "light", 7, "c4ad34bb7ee6a90fa815d0da561a1d80f882fca1bf05fd4f26fd78d8dd557e3e"},
	{"Xeon-4870", "green500", "light", 1e+300, "cd39ff8ca3a54d0379274e539058f222013b45a19d1a4e1bf2abeaa2d7df0d8d"},
	{"custom", "evaluate", "", 0, "82620e3f21a144747955e2c1fb27853cd7f0337af2268819a503c70cf6103756"},
	{"custom", "evaluate", "", 7, "4e21c204eeac7375ee3ad56c2f431494d676cc241f500a2fe24fd65d1cf186ad"},
	{"custom", "evaluate", "", 1e+300, "035157d75c85a22b9fe8b3fcb4306e2cb71645544dd7a888a9036bbba8aeca2d"},
	{"custom", "evaluate", "light", 0, "38986c1821acac28df6d59a136d5e4380cedfe660f13fbd802f94e46995b9c79"},
	{"custom", "evaluate", "light", 7, "285b7f6c1bdf95b4d9acc88d9430ee89641f983d67f117f81cad8c80c243a36b"},
	{"custom", "evaluate", "light", 1e+300, "f901ff556138d15dedd7ab977b7c9efdb9ec15f65df3ae9cc47b0f6f0ccdaffc"},
	{"custom", "green500", "", 0, "3002ea2bd99e595c3128df37d54edf2e358ceaceb898ebcdd42b081afc8559b1"},
	{"custom", "green500", "", 7, "f950372e57fe42d6637e44e04292ce3d85b1a82b93cf3283ce8a2c063cc9a9dd"},
	{"custom", "green500", "", 1e+300, "0e2679ef9990c885acdccfecfb26dcb1f3479ff8e422637fee13cf49d5409b8f"},
	{"custom", "green500", "light", 0, "e5cb9a503b9431221ad07d952cda6f19962ecba42249774d9d723efd536c1322"},
	{"custom", "green500", "light", 7, "074955086de67940c11f057f9cf389120cdee172f55ff401fbf0e23bb76868eb"},
	{"custom", "green500", "light", 1e+300, "c2688fbb2da6673b35d3407e83c1e208c92cb5e7b668f2e3a0ab8f92267c578b"},
}

func TestCanonicalHashGolden(t *testing.T) {
	specs := map[string]*server.Spec{"custom": goldenCustomSpec()}
	for _, sp := range server.All() {
		specs[sp.Name] = sp
	}
	for _, g := range canonicalHashGolden {
		got := CanonicalHash(specs[g.server], g.seed, HashOpts{Method: g.method, FaultProfile: g.profile})
		if got != g.key {
			t.Errorf("%s/%s/%q/seed %v: key %s, want %s", g.server, g.method, g.profile, g.seed, got, g.key)
		}
	}
}
