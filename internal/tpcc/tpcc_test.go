package tpcc

import (
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/minidb"
)

func testScale() Scale {
	return Scale{
		Warehouses:               1,
		Districts:                3,
		CustomersPerDistrict:     12,
		Items:                    50,
		InitialOrdersPerDistrict: 8,
	}
}

func loadTestDB(t *testing.T, scale Scale, seed int64) (*Client, *minidb.DB) {
	t.Helper()
	store, err := block.NewMem(4096, 16384)
	if err != nil {
		t.Fatal(err)
	}
	db, err := minidb.Create(store, minidb.DBConfig{WALPages: 16, CheckpointEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load(db, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c, db
}

func TestLoadPopulatesCardinalities(t *testing.T) {
	scale := testScale()
	c, _ := loadTestDB(t, scale, 1)

	counts := map[string]int{
		TWarehouse: scale.Warehouses,
		TDistrict:  scale.Warehouses * scale.Districts,
		TCustomer:  scale.Warehouses * scale.Districts * scale.CustomersPerDistrict,
		THistory:   scale.Warehouses * scale.Districts * scale.CustomersPerDistrict,
		TItem:      scale.Items,
		TStock:     scale.Warehouses * scale.Items,
		TOrders:    scale.Warehouses * scale.Districts * scale.InitialOrdersPerDistrict,
	}
	for name, want := range counts {
		tbl, err := c.db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tbl.Count()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}

	// ~30% of initial orders are undelivered.
	no, _ := c.newOrder.Count()
	wantNO := scale.Warehouses * scale.Districts * (scale.InitialOrdersPerDistrict * 3 / 10)
	if no != wantNO {
		t.Errorf("new_order count = %d, want %d", no, wantNO)
	}

	// Order lines: 5-15 per order.
	ol, _ := c.orderLine.Count()
	minOL := counts[TOrders] * 5
	maxOL := counts[TOrders] * 15
	if ol < minOL || ol > maxOL {
		t.Errorf("order_line count = %d, want in [%d,%d]", ol, minOL, maxOL)
	}
}

func TestLoadRejectsBadScale(t *testing.T) {
	store, _ := block.NewMem(4096, 1024)
	db, err := minidb.Create(store, minidb.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(db, Scale{}, 1); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestAllTransactionTypes(t *testing.T) {
	c, _ := loadTestDB(t, testScale(), 2)
	for _, tt := range []TxType{TxNewOrder, TxPayment, TxOrderStatus, TxDelivery, TxStockLevel} {
		t.Run(tt.String(), func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if err := c.RunOne(tt); err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
			}
		})
	}
	s := c.Stats()
	if s.Total != 50 {
		t.Errorf("total = %d, want 50", s.Total)
	}
}

func TestMixedRunMatchesSpecMix(t *testing.T) {
	c, _ := loadTestDB(t, testScale(), 3)
	const n = 400
	if err := c.Run(n); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Total != n {
		t.Fatalf("total = %d", s.Total)
	}
	// New-Order should be ~45%, Payment ~43%; allow generous slack.
	frac := func(tt TxType) float64 { return float64(s.Counts[tt]) / float64(n) }
	if f := frac(TxNewOrder); f < 0.35 || f > 0.55 {
		t.Errorf("NEW-ORDER fraction = %.2f, want ~0.45", f)
	}
	if f := frac(TxPayment); f < 0.33 || f > 0.53 {
		t.Errorf("PAYMENT fraction = %.2f, want ~0.43", f)
	}
	for _, tt := range []TxType{TxOrderStatus, TxDelivery, TxStockLevel} {
		if s.Counts[tt] == 0 {
			t.Errorf("%v never ran in %d transactions", tt, n)
		}
	}
}

// TestNewOrderAdvancesDistrict checks the visible state change of the
// NEW-ORDER profile: d_next_o_id advances and the order exists.
func TestNewOrderAdvancesDistrict(t *testing.T) {
	scale := testScale()
	c, _ := loadTestDB(t, scale, 4)

	before := make(map[int64]int64)
	for d := int64(1); d <= int64(scale.Districts); d++ {
		row, err := c.district.Get(minidb.Key(1, d))
		if err != nil {
			t.Fatal(err)
		}
		before[d] = row[9].I
	}

	const n = 30
	for i := 0; i < n; i++ {
		if err := c.RunOne(TxNewOrder); err != nil {
			t.Fatal(err)
		}
	}

	advanced := int64(0)
	for d := int64(1); d <= int64(scale.Districts); d++ {
		row, err := c.district.Get(minidb.Key(1, d))
		if err != nil {
			t.Fatal(err)
		}
		advanced += row[9].I - before[d]
	}
	if advanced != n {
		t.Errorf("district next_o_id advanced %d, want %d", advanced, n)
	}
	orders, _ := c.orders.Count()
	wantOrders := scale.Warehouses*scale.Districts*scale.InitialOrdersPerDistrict + n
	if orders != wantOrders {
		t.Errorf("orders = %d, want %d", orders, wantOrders)
	}
}

// TestDeliveryDrainsNewOrders: repeated deliveries empty the queue.
func TestDeliveryDrainsNewOrders(t *testing.T) {
	c, _ := loadTestDB(t, testScale(), 5)
	for i := 0; i < 20; i++ {
		if err := c.RunOne(TxDelivery); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := c.newOrder.Count()
	if n != 0 {
		t.Errorf("new_order not drained: %d rows left", n)
	}
}

// TestDeterminism: identical seeds produce identical workloads.
func TestDeterminism(t *testing.T) {
	run := func() (Stats, int) {
		c, _ := loadTestDB(t, testScale(), 42)
		if err := c.Run(100); err != nil {
			t.Fatal(err)
		}
		orders, _ := c.orders.Count()
		return c.Stats(), orders
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1.Total != s2.Total || o1 != o2 {
		t.Errorf("nondeterministic: totals %d/%d orders %d/%d", s1.Total, s2.Total, o1, o2)
	}
	for k, v := range s1.Counts {
		if s2.Counts[k] != v {
			t.Errorf("mix differs for %v: %d vs %d", k, v, s2.Counts[k])
		}
	}
}

func TestLastName(t *testing.T) {
	tests := []struct {
		num  int64
		want string
	}{
		{0, "BARBARBAR"},
		{1, "BARBAROUGHT"},
		{371, "PRICALLYOUGHT"},
		{999, "EINGEINGEING"},
	}
	for _, tt := range tests {
		if got := LastName(tt.num); got != tt.want {
			t.Errorf("LastName(%d) = %q, want %q", tt.num, got, tt.want)
		}
	}
}

func TestNURandInRange(t *testing.T) {
	g := newGen(7)
	for i := 0; i < 5000; i++ {
		if v := g.customerID(3000); v < 1 || v > 3000 {
			t.Fatalf("customerID out of range: %d", v)
		}
		if v := g.itemID(100000); v < 1 || v > 100000 {
			t.Fatalf("itemID out of range: %d", v)
		}
		if v := g.lastNameIdx(1000); v < 0 || v > 999 {
			t.Fatalf("lastNameIdx out of range: %d", v)
		}
	}
}

// TestNURandSkew: the distribution must be non-uniform (hot values).
func TestNURandSkew(t *testing.T) {
	g := newGen(11)
	counts := make(map[int64]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.customerID(1000)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform would put ~20 on each value; NURand concentrates.
	if max < 40 {
		t.Errorf("hottest value hit %d times; expected heavy skew (>40)", max)
	}
}

func TestTxTypeString(t *testing.T) {
	if TxNewOrder.String() != "NEW-ORDER" || TxType(99).String() != "TX(99)" {
		t.Error("TxType strings wrong")
	}
}

// TestDeviceWritesDeterministic: a seeded run is a function of its seed
// down to the device — the same transactions over a small buffer pool
// (the stock-level transaction's stock reads hit and miss it, and so
// decide which dirty pages are evicted next) must issue the identical
// sequence of device writes, LBA and content. Without a checkpoint in
// the run, data pages reach the device through evictions only, whose
// order is the transactions' access order; with checkpoints, each one
// flushes the pool's dirty pages in ascending page order.
func TestDeviceWritesDeterministic(t *testing.T) {
	type write struct {
		lba  uint64
		hash uint64
	}
	scale := testScale()
	scale.Items = 200 // stock about fills the 16-page pool
	run := func(t *testing.T, checkpointEvery int) []write {
		mem, err := block.NewMem(4096, 16384)
		if err != nil {
			t.Fatal(err)
		}
		var log []write
		store := block.NewObserved(mem, func(lba uint64, _, data []byte) {
			log = append(log, write{lba, iscsi.HashBlock(data)})
		})
		db, err := minidb.Create(store, minidb.DBConfig{CacheBytes: 16 * 4096, WALPages: 16, CheckpointEvery: checkpointEvery})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Load(db, scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		log = log[:0] // the load is not under test
		for i := 0; i < 60; i++ {
			typ := c.NextType()
			if i%3 == 2 {
				typ = TxStockLevel
			}
			if err := c.RunOne(typ); err != nil {
				t.Fatal(err)
			}
		}
		return log
	}
	for _, tc := range []struct {
		name            string
		checkpointEvery int
	}{
		{"evictions-only", 1 << 30},
		{"checkpoints", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := run(t, tc.checkpointEvery)
			if len(first) == 0 {
				t.Fatal("the run wrote nothing: the pool is not small enough to evict")
			}
			for rep := 0; rep < 3; rep++ {
				again := run(t, tc.checkpointEvery)
				if len(again) != len(first) {
					t.Fatalf("repetition %d issued %d device writes, the first run %d", rep, len(again), len(first))
				}
				for i := range first {
					if again[i] != first[i] {
						t.Fatalf("repetition %d, device write %d: lba %d hash %x, the first run lba %d hash %x",
							rep, i, again[i].lba, again[i].hash, first[i].lba, first[i].hash)
					}
				}
			}
		})
	}
}
