package workload

// The 33 kernels of Sec. V, one per application in Splash-4 (14),
// PARSEC (12) and Phoenix (7). Parameters encode each application's
// qualitative coherence behaviour:
//
//   - PrivateLines is the resident per-core working set (fits the
//     128 KiB L1, so it hits after warm-up);
//   - Stream is the compulsory-miss fraction, the knob that sets the
//     MPKI band the paper calibrates per application;
//   - SharedRead touches a read-only region both clusters cache;
//   - Hot* touch the small contended read-write set whose cross-cluster
//     ping-pong is what CXL makes more expensive (Fig. 11);
//   - BarrierEvery/LockEvery add real synchronization traffic.
//
// The paper's Fig. 11 singles out histogram, barnes and lu-ncont as the
// most CXL-sensitive and vips as nearly insensitive; those shapes are
// encoded below.
func Specs() []Spec {
	return []Spec{
		// ---- Splash-4 ----
		{Name: "barnes", Suite: Splash4, Ops: 10000, PrivateLines: 512, SharedLines: 64,
			HotLines: 6, PrivateStore: 0.20, SharedRead: 0.18, Stream: 0.020,
			HotRead: 0.005, HotWrite: 0.0045, HotRMW: 0.0015, BarrierEvery: 3200, Stride: 3},
		{Name: "fmm", Suite: Splash4, Ops: 10000, PrivateLines: 512, SharedLines: 48,
			HotLines: 8, PrivateStore: 0.22, SharedRead: 0.15, Stream: 0.018,
			HotRead: 0.002, HotWrite: 0.001, BarrierEvery: 4000, Stride: 2},
		{Name: "ocean-cont", Suite: Splash4, Ops: 10000, PrivateLines: 640, SharedLines: 32,
			HotLines: 4, PrivateStore: 0.30, SharedRead: 0.10, Stream: 0.050,
			HotRead: 0.0015, HotWrite: 0.0005, BarrierEvery: 2000, Stride: 1},
		{Name: "ocean-ncont", Suite: Splash4, Ops: 10000, PrivateLines: 640, SharedLines: 32,
			HotLines: 6, PrivateStore: 0.30, SharedRead: 0.10, Stream: 0.055,
			HotRead: 0.002, HotWrite: 0.0015, BarrierEvery: 2000, Stride: 5},
		{Name: "radiosity", Suite: Splash4, Ops: 10000, PrivateLines: 512, SharedLines: 64,
			HotLines: 8, PrivateStore: 0.18, SharedRead: 0.22, Stream: 0.012,
			HotRead: 0.0015, HotWrite: 0.001, HotRMW: 0.0005, LockEvery: 1600, Stride: 2},
		{Name: "raytrace", Suite: Splash4, Ops: 10000, PrivateLines: 512, SharedLines: 128,
			HotLines: 4, PrivateStore: 0.10, SharedRead: 0.35, Stream: 0.010,
			HotRead: 0.001, LockEvery: 2800, Stride: 2},
		{Name: "volrend", Suite: Splash4, Ops: 10000, PrivateLines: 384, SharedLines: 128,
			HotLines: 4, PrivateStore: 0.08, SharedRead: 0.40, Stream: 0.008,
			HotRead: 0.001, Stride: 1},
		{Name: "water-nsq", Suite: Splash4, Ops: 10000, PrivateLines: 512, SharedLines: 48,
			HotLines: 4, PrivateStore: 0.25, SharedRead: 0.12, Stream: 0.012,
			HotRead: 0.001, HotWrite: 0.0005, BarrierEvery: 3200, LockEvery: 2400, Stride: 2},
		{Name: "water-sp", Suite: Splash4, Ops: 10000, PrivateLines: 512, SharedLines: 32,
			HotLines: 3, PrivateStore: 0.25, SharedRead: 0.10, Stream: 0.010,
			HotRead: 0.001, BarrierEvery: 3600, Stride: 2},
		{Name: "cholesky", Suite: Splash4, Ops: 10000, PrivateLines: 640, SharedLines: 64,
			HotLines: 5, PrivateStore: 0.28, SharedRead: 0.15, Stream: 0.025,
			HotRead: 0.001, HotWrite: 0.0005, LockEvery: 3600, Stride: 1},
		{Name: "fft", Suite: Splash4, Ops: 10000, PrivateLines: 768, SharedLines: 96,
			HotLines: 2, PrivateStore: 0.30, SharedRead: 0.20, Stream: 0.060,
			HotRead: 0.0005, BarrierEvery: 2800, Stride: 1},
		{Name: "lu-cont", Suite: Splash4, Ops: 10000, PrivateLines: 640, SharedLines: 64,
			HotLines: 3, PrivateStore: 0.30, SharedRead: 0.15, Stream: 0.020,
			HotRead: 0.001, HotWrite: 0.0005, BarrierEvery: 2800, Stride: 1},
		{Name: "lu-ncont", Suite: Splash4, Ops: 10000, PrivateLines: 640, SharedLines: 64,
			HotLines: 8, PrivateStore: 0.28, SharedRead: 0.12, Stream: 0.020,
			HotRead: 0.006, HotWrite: 0.0075, BarrierEvery: 2800, Stride: 7},
		{Name: "radix", Suite: Splash4, Ops: 10000, PrivateLines: 768, SharedLines: 32,
			HotLines: 4, PrivateStore: 0.40, SharedRead: 0.08, Stream: 0.070,
			HotRead: 0.001, HotWrite: 0.001, BarrierEvery: 3200, Stride: 3},

		// ---- PARSEC ----
		{Name: "blackscholes", Suite: PARSEC, Ops: 10000, PrivateLines: 384, SharedLines: 32,
			HotLines: 1, PrivateStore: 0.15, SharedRead: 0.10, Stream: 0.008, Stride: 1},
		{Name: "bodytrack", Suite: PARSEC, Ops: 10000, PrivateLines: 512, SharedLines: 96,
			HotLines: 4, PrivateStore: 0.15, SharedRead: 0.25, Stream: 0.015,
			HotRead: 0.001, HotRMW: 0.0005, BarrierEvery: 3600, Stride: 2},
		{Name: "canneal", Suite: PARSEC, Ops: 10000, PrivateLines: 640, SharedLines: 128,
			HotLines: 10, PrivateStore: 0.15, SharedRead: 0.25, Stream: 0.060,
			HotRead: 0.004, HotWrite: 0.0025, HotRMW: 0.0025, Stride: 11},
		{Name: "dedup", Suite: PARSEC, Ops: 10000, PrivateLines: 512, SharedLines: 64,
			HotLines: 6, PrivateStore: 0.25, SharedRead: 0.12, Stream: 0.030,
			HotRead: 0.001, HotRMW: 0.001, LockEvery: 2000, Stride: 2},
		{Name: "facesim", Suite: PARSEC, Ops: 10000, PrivateLines: 640, SharedLines: 64,
			HotLines: 3, PrivateStore: 0.25, SharedRead: 0.15, Stream: 0.030,
			HotRead: 0.0005, HotWrite: 0.0005, BarrierEvery: 4000, Stride: 1},
		{Name: "ferret", Suite: PARSEC, Ops: 10000, PrivateLines: 512, SharedLines: 128,
			HotLines: 5, PrivateStore: 0.15, SharedRead: 0.30, Stream: 0.015,
			HotRead: 0.001, HotRMW: 0.0005, LockEvery: 2800, Stride: 2},
		{Name: "fluidanimate", Suite: PARSEC, Ops: 10000, PrivateLines: 512, SharedLines: 48,
			HotLines: 8, PrivateStore: 0.22, SharedRead: 0.12, Stream: 0.015,
			HotRead: 0.002, HotWrite: 0.0015, LockEvery: 1200, Stride: 2},
		{Name: "freqmine", Suite: PARSEC, Ops: 10000, PrivateLines: 512, SharedLines: 96,
			HotLines: 4, PrivateStore: 0.20, SharedRead: 0.25, Stream: 0.020,
			HotRead: 0.001, HotRMW: 0.0005, Stride: 2},
		{Name: "streamcluster", Suite: PARSEC, Ops: 10000, PrivateLines: 640, SharedLines: 128,
			HotLines: 3, PrivateStore: 0.18, SharedRead: 0.35, Stream: 0.035,
			HotRead: 0.001, HotWrite: 0.0005, BarrierEvery: 2800, Stride: 1},
		{Name: "swaptions", Suite: PARSEC, Ops: 10000, PrivateLines: 384, SharedLines: 32,
			HotLines: 1, PrivateStore: 0.20, SharedRead: 0.05, Stream: 0.006, Stride: 1},
		{Name: "vips", Suite: PARSEC, Ops: 10000, PrivateLines: 448, SharedLines: 32,
			HotLines: 1, PrivateStore: 0.25, SharedRead: 0.06, Stream: 0.012, Stride: 1},
		{Name: "x264", Suite: PARSEC, Ops: 10000, PrivateLines: 512, SharedLines: 80,
			HotLines: 4, PrivateStore: 0.22, SharedRead: 0.20, Stream: 0.018,
			HotRead: 0.001, HotWrite: 0.0005, LockEvery: 3200, Stride: 2},

		// ---- Phoenix ----
		{Name: "histogram", Suite: Phoenix, Ops: 10000, PrivateLines: 512, SharedLines: 32,
			HotLines: 12, PrivateStore: 0.05, SharedRead: 0.05, Stream: 0.030,
			HotRead: 0.008, HotWrite: 0.005, HotRMW: 0.011, Stride: 1},
		{Name: "kmeans", Suite: Phoenix, Ops: 10000, PrivateLines: 512, SharedLines: 64,
			HotLines: 8, PrivateStore: 0.12, SharedRead: 0.30, Stream: 0.020,
			HotRead: 0.0015, HotRMW: 0.001, BarrierEvery: 2800, Stride: 1},
		{Name: "linear_regression", Suite: Phoenix, Ops: 10000, PrivateLines: 512,
			SharedLines: 32, HotLines: 1, PrivateStore: 0.10, SharedRead: 0.02,
			Stream: 0.025, Stride: 1},
		{Name: "matrix_multiply", Suite: Phoenix, Ops: 10000, PrivateLines: 640,
			SharedLines: 128, HotLines: 1, PrivateStore: 0.15, SharedRead: 0.35,
			Stream: 0.020, Stride: 1},
		{Name: "pca", Suite: Phoenix, Ops: 10000, PrivateLines: 512, SharedLines: 96,
			HotLines: 4, PrivateStore: 0.15, SharedRead: 0.30, Stream: 0.018,
			HotRead: 0.0005, HotRMW: 0.0005, BarrierEvery: 3600, Stride: 1},
		{Name: "string_match", Suite: Phoenix, Ops: 10000, PrivateLines: 448,
			SharedLines: 32, HotLines: 1, PrivateStore: 0.05, SharedRead: 0.10,
			Stream: 0.020, Stride: 1},
		{Name: "word_count", Suite: Phoenix, Ops: 10000, PrivateLines: 512, SharedLines: 32,
			HotLines: 10, PrivateStore: 0.10, SharedRead: 0.10, Stream: 0.018,
			HotRead: 0.003, HotWrite: 0.0015, HotRMW: 0.004, Stride: 1},
	}
}

// ByName finds a kernel spec.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists all kernel names in definition order.
func Names() []string {
	var out []string
	for _, s := range Specs() {
		out = append(out, s.Name)
	}
	return out
}
