package tpcc

import (
	"errors"
	"fmt"

	"prins/internal/minidb"
)

// The five TPC-C transaction profiles (spec clause 2). Each runs as
// one minidb transaction: reads and tuple updates followed by a WAL
// commit.

// newOrderTx implements the NEW-ORDER profile (clause 2.4).
func (c *Client) newOrderTx() error {
	g := c.g
	w := g.uniform(1, int64(c.scale.Warehouses))
	d := g.uniform(1, int64(c.scale.Districts))
	cust := g.customerID(int64(c.scale.CustomersPerDistrict))
	olCnt := g.uniform(5, 15)
	now := g.nextTime()

	txn := c.db.Begin()

	// District: read and bump next_o_id.
	var oID int64
	err := c.district.Update(txn, minidb.Key(w, d), func(r minidb.Row) (minidb.Row, error) {
		oID = r[9].I
		r[9] = minidb.I64(oID + 1)
		return r, nil
	})
	if err != nil {
		return err
	}

	// Customer and warehouse reads (tax, discount).
	if _, err := c.customer.Get(minidb.Key(w, d, cust)); err != nil {
		return err
	}
	if _, err := c.warehouse.Get(minidb.Key(w)); err != nil {
		return err
	}

	// Insert ORDERS and NEW_ORDER.
	allLocal := int64(1)
	if err := c.orders.Insert(txn, minidb.Row{
		minidb.I64(w), minidb.I64(d), minidb.I64(oID),
		minidb.I64(cust), minidb.I64(now), minidb.I64(0),
		minidb.I64(olCnt), minidb.I64(allLocal),
	}); err != nil {
		return err
	}
	if err := c.newOrder.Insert(txn, minidb.Row{
		minidb.I64(w), minidb.I64(d), minidb.I64(oID),
	}); err != nil {
		return err
	}

	// Order lines: read item, update stock, insert line.
	for ol := int64(1); ol <= olCnt; ol++ {
		item := g.itemID(int64(c.scale.Items))
		qty := g.uniform(1, 10)

		itemRow, err := c.item.Get(minidb.Key(item))
		if err != nil {
			return fmt.Errorf("item %d: %w", item, err)
		}
		price := itemRow[3].F

		supplyW := w
		if c.scale.Warehouses > 1 && g.uniform(1, 100) == 1 {
			// 1% remote orders.
			for supplyW == w {
				supplyW = g.uniform(1, int64(c.scale.Warehouses))
			}
		}

		err = c.stock.Update(txn, minidb.Key(supplyW, item), func(r minidb.Row) (minidb.Row, error) {
			q := r[2].I
			if q >= qty+10 {
				q -= qty
			} else {
				q = q - qty + 91
			}
			r[2] = minidb.I64(q)
			r[4] = minidb.I64(r[4].I + qty) // s_ytd
			r[5] = minidb.I64(r[5].I + 1)   // s_order_cnt
			if supplyW != w {
				r[6] = minidb.I64(r[6].I + 1) // s_remote_cnt
			}
			return r, nil
		})
		if err != nil {
			return fmt.Errorf("stock (%d,%d): %w", supplyW, item, err)
		}

		if err := c.orderLine.Insert(txn, minidb.Row{
			minidb.I64(w), minidb.I64(d), minidb.I64(oID), minidb.I64(ol),
			minidb.I64(item), minidb.I64(supplyW), minidb.I64(0),
			minidb.I64(qty), minidb.F64(price * float64(qty)),
			minidb.Str(g.aString(24, 24)),
		}); err != nil {
			return err
		}
	}
	return txn.Commit()
}

// paymentTx implements the PAYMENT profile (clause 2.5).
func (c *Client) paymentTx() error {
	g := c.g
	w := g.uniform(1, int64(c.scale.Warehouses))
	d := g.uniform(1, int64(c.scale.Districts))
	amount := float64(g.uniform(100, 500000)) / 100
	now := g.nextTime()

	txn := c.db.Begin()

	if err := c.warehouse.Update(txn, minidb.Key(w), func(r minidb.Row) (minidb.Row, error) {
		r[8] = minidb.F64(r[8].F + amount) // w_ytd
		return r, nil
	}); err != nil {
		return err
	}
	if err := c.district.Update(txn, minidb.Key(w, d), func(r minidb.Row) (minidb.Row, error) {
		r[8] = minidb.F64(r[8].F + amount) // d_ytd
		return r, nil
	}); err != nil {
		return err
	}

	// Customer selection: 60% by last name, 40% by id (clause 2.5.1.2).
	var custKey []byte
	if g.uniform(1, 100) <= 60 {
		last := LastName(g.lastNameIdx(1000))
		key, err := c.customerByLastName(w, d, last)
		if err != nil {
			if errors.Is(err, errNoSuchName) {
				// Scaled-down population may miss a name; fall back.
				custKey = minidb.Key(w, d, g.customerID(int64(c.scale.CustomersPerDistrict)))
			} else {
				return err
			}
		} else {
			custKey = key
		}
	} else {
		custKey = minidb.Key(w, d, g.customerID(int64(c.scale.CustomersPerDistrict)))
	}

	var custID int64
	if err := c.customer.Update(txn, custKey, func(r minidb.Row) (minidb.Row, error) {
		custID = r[2].I
		r[15] = minidb.F64(r[15].F - amount) // c_balance
		r[16] = minidb.F64(r[16].F + amount) // c_ytd_payment
		r[17] = minidb.I64(r[17].I + 1)      // c_payment_cnt
		if r[12].S == "BC" {
			// Bad-credit customers accrete data (clause 2.5.3.3).
			data := fmt.Sprintf("%d %d %d %.2f|%s", custID, d, w, amount, r[19].S)
			if len(data) > 500 {
				data = data[:500]
			}
			r[19] = minidb.Str(data)
		}
		return r, nil
	}); err != nil {
		return err
	}

	c.histID++
	if err := c.history.Insert(txn, minidb.Row{
		minidb.I64(c.histID),
		minidb.I64(w), minidb.I64(d), minidb.I64(custID),
		minidb.I64(w), minidb.I64(d),
		minidb.I64(now), minidb.F64(amount),
		minidb.Str(g.aString(12, 24)),
	}); err != nil {
		return err
	}
	return txn.Commit()
}

var errNoSuchName = errors.New("tpcc: no customer with that last name")

// customerByLastName returns the PK of the median customer with the
// given last name (spec: middle of the sorted-by-first-name set; we
// use the middle of the index scan, equivalent in distribution).
func (c *Client) customerByLastName(w, d int64, last string) ([]byte, error) {
	prefix := minidb.KeyString(minidb.Key(w, d), last)
	var ids []int64
	err := c.customer.ScanIndex("by_last", prefix, func(r minidb.Row) (bool, error) {
		ids = append(ids, r[2].I)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, errNoSuchName
	}
	return minidb.Key(w, d, ids[len(ids)/2]), nil
}

// orderStatusTx implements ORDER-STATUS (clause 2.6): read-only.
func (c *Client) orderStatusTx() error {
	g := c.g
	w := g.uniform(1, int64(c.scale.Warehouses))
	d := g.uniform(1, int64(c.scale.Districts))

	var custKey []byte
	if g.uniform(1, 100) <= 60 {
		key, err := c.customerByLastName(w, d, LastName(g.lastNameIdx(1000)))
		if err != nil {
			if !errors.Is(err, errNoSuchName) {
				return err
			}
			key = minidb.Key(w, d, g.customerID(int64(c.scale.CustomersPerDistrict)))
		}
		custKey = key
	} else {
		custKey = minidb.Key(w, d, g.customerID(int64(c.scale.CustomersPerDistrict)))
	}
	custRow, err := c.customer.Get(custKey)
	if err != nil {
		return err
	}
	custID := custRow[2].I

	// Most recent order for the customer.
	var lastOrder int64 = -1
	var olCnt int64
	err = c.orders.ScanIndex("by_customer", minidb.Key(w, d, custID), func(r minidb.Row) (bool, error) {
		if r[2].I > lastOrder {
			lastOrder = r[2].I
			olCnt = r[6].I
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if lastOrder < 0 {
		return nil // customer has no orders yet
	}
	// Read its order lines.
	for ol := int64(1); ol <= olCnt; ol++ {
		if _, err := c.orderLine.Get(minidb.Key(w, d, lastOrder, ol)); err != nil &&
			!errors.Is(err, minidb.ErrNotFound) {
			return err
		}
	}
	return nil
}

// deliveryTx implements DELIVERY (clause 2.7): deliver the oldest
// undelivered order in every district of one warehouse.
func (c *Client) deliveryTx() error {
	g := c.g
	w := g.uniform(1, int64(c.scale.Warehouses))
	carrier := g.uniform(1, 10)
	now := g.nextTime()

	txn := c.db.Begin()
	for d := int64(1); d <= int64(c.scale.Districts); d++ {
		// Oldest NEW_ORDER for (w, d): first key with that prefix.
		var oID int64 = -1
		err := c.newOrder.ScanRange(minidb.Key(w, d), minidb.Key(w, d+1), func(r minidb.Row) (bool, error) {
			oID = r[2].I
			return false, nil
		})
		if err != nil {
			return err
		}
		if oID < 0 {
			continue // district fully delivered
		}
		if err := c.newOrder.Delete(txn, minidb.Key(w, d, oID)); err != nil {
			return err
		}

		var custID, olCnt int64
		if err := c.orders.Update(txn, minidb.Key(w, d, oID), func(r minidb.Row) (minidb.Row, error) {
			custID = r[3].I
			olCnt = r[6].I
			r[5] = minidb.I64(carrier) // o_carrier_id
			return r, nil
		}); err != nil {
			return err
		}

		total := 0.0
		for ol := int64(1); ol <= olCnt; ol++ {
			err := c.orderLine.Update(txn, minidb.Key(w, d, oID, ol), func(r minidb.Row) (minidb.Row, error) {
				r[6] = minidb.I64(now) // ol_delivery_d
				total += r[8].F
				return r, nil
			})
			if err != nil && !errors.Is(err, minidb.ErrNotFound) {
				return err
			}
		}

		if err := c.customer.Update(txn, minidb.Key(w, d, custID), func(r minidb.Row) (minidb.Row, error) {
			r[15] = minidb.F64(r[15].F + total) // c_balance
			r[18] = minidb.I64(r[18].I + 1)     // c_delivery_cnt
			return r, nil
		}); err != nil {
			return err
		}
	}
	return txn.Commit()
}

// stockLevelTx implements STOCK-LEVEL (clause 2.8): read-only.
func (c *Client) stockLevelTx() error {
	g := c.g
	w := g.uniform(1, int64(c.scale.Warehouses))
	d := g.uniform(1, int64(c.scale.Districts))
	threshold := g.uniform(10, 20)

	distRow, err := c.district.Get(minidb.Key(w, d))
	if err != nil {
		return err
	}
	nextOID := distRow[9].I

	// Last 20 orders' lines; count distinct items below threshold.
	lowOID := nextOID - 20
	if lowOID < 1 {
		lowOID = 1
	}
	// Stock rows are read in first-seen scan order, not map order: the
	// reads go through the buffer pool, so their order decides which
	// pages are evicted and with it the device I/O of a seeded run.
	seen := make(map[int64]bool)
	var items []int64
	err = c.orderLine.ScanRange(minidb.Key(w, d, lowOID), minidb.Key(w, d, nextOID),
		func(r minidb.Row) (bool, error) {
			if item := r[4].I; !seen[item] {
				seen[item] = true
				items = append(items, item)
			}
			return true, nil
		})
	if err != nil {
		return err
	}
	low := 0
	for _, item := range items {
		srow, err := c.stock.Get(minidb.Key(w, item))
		if err != nil {
			return err
		}
		if srow[2].I < threshold {
			low++
		}
	}
	_ = low
	return nil
}

// nextTime returns a monotonically advancing synthetic timestamp.
func (g *gen) nextTime() int64 {
	g.clock++
	return 1_136_073_600 + g.clock
}
