package main

// defaultSeed is the seed whose outputs are pinned.
const defaultSeed = 1

// fig4Golden pins fig4-sweep's (mean, sd) max load per row for the
// default seed, rows in Fig4Replicated's order: SLO 0.75/1/1.5/2 ms, each
// TailGuard then FIFO.
var fig4Golden = [8][2]float64{
	{0.275, 0.03977475644174331},
	{0.22578125000000004, 0.08706644822346897},
	{0.4296875, 0.028124999999999983},
	{0.38749999999999996, 0.03247595264191647},
	{0.5492187500000001, 0.05323976574187761},
	{0.53515625, 0.04218750000000002},
	{0.63359375, 0.06236313138585965},
	{0.6125, 0.08279775812182354},
}

// simGolden pins sim-10k's Result digest for the default seed.
var simGolden = simDigest{Completed: 1000000, P99: 0.8012538390785916, MissRatio: 0.0014858555848757174}
