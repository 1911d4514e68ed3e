// Package ssj implements the SPECpower_ssj2008-style workload the paper
// contrasts with HPC programs (§III-A, §IV-A): a transactional
// server-side-Java-like benchmark with three calibration phases, a
// graduated load ladder from 100% down to 10% of calibrated throughput,
// and the ssj_ops/watt summary score.
//
// The native engine below really executes transactions against in-memory
// warehouses (a reduced TPC-C-like mix); NativeCalibration measures its
// wall-clock throughput on this machine. Run plays the full graduated
// protocol as a workload model on a simulated server, producing the
// memory- and CPU-usage ladders of the paper's Figs. 1-2 and the
// comparison score of §V-C3.
package ssj

import (
	"fmt"

	"powerbench/internal/rng"
)

// Transaction types of the ssj mix.
const (
	TxNewOrder = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
	TxCustomerReport
	numTxTypes
)

// txMix is the cumulative probability ladder of the ssj2008 transaction
// mix (New Order 30.3%, Payment 30.3%, Customer Report 30.3%, the three
// light transactions ~3% each).
var txMix = [numTxTypes]float64{0.303, 0.606, 0.636, 0.666, 0.697, 1.0}

// itemsPerWarehouse sizes each warehouse's in-memory stock table.
const itemsPerWarehouse = 2000

// order is a row in a warehouse's order log.
type order struct {
	id       int
	item     int
	quantity int
	total    float64
}

// Warehouse is one unit of the transactional working set.
type Warehouse struct {
	stock     []int
	prices    []float64
	orders    []order
	balance   float64
	nextID    int
	delivered int
}

// NewWarehouse returns a stocked warehouse.
func NewWarehouse(seed float64) *Warehouse {
	w := &Warehouse{
		stock:  make([]int, itemsPerWarehouse),
		prices: make([]float64, itemsPerWarehouse),
	}
	s := rng.NewStream(seed, rng.A)
	for i := range w.stock {
		w.stock[i] = 100 + int(s.Uint64n(900))
		w.prices[i] = 1 + 99*s.Next()
	}
	return w
}

// Execute runs one transaction of the given type, returning a checksum-ish
// value so the work cannot be optimized away.
func (w *Warehouse) Execute(tx int, s *rng.Stream) float64 {
	switch tx {
	case TxNewOrder:
		item := int(s.Uint64n(itemsPerWarehouse))
		qty := 1 + int(s.Uint64n(9))
		total := float64(qty) * w.prices[item]
		w.orders = append(w.orders, order{id: w.nextID, item: item, quantity: qty, total: total})
		w.nextID++
		if w.stock[item] >= qty {
			w.stock[item] -= qty
		} else {
			w.stock[item] += 500 // restock
		}
		return total
	case TxPayment:
		amount := 10 * s.Next()
		w.balance += amount
		return w.balance
	case TxOrderStatus:
		if len(w.orders) == 0 {
			return 0
		}
		o := w.orders[int(s.Uint64n(uint64(len(w.orders))))]
		return o.total
	case TxDelivery:
		n := 0
		for i := w.delivered; i < len(w.orders) && n < 10; i++ {
			w.delivered++
			n++
		}
		return float64(n)
	case TxStockLevel:
		low := 0
		start := int(s.Uint64n(itemsPerWarehouse - 100))
		for i := start; i < start+100; i++ {
			if w.stock[i] < 150 {
				low++
			}
		}
		return float64(low)
	case TxCustomerReport:
		var sum float64
		start := len(w.orders) - 50
		if start < 0 {
			start = 0
		}
		for _, o := range w.orders[start:] {
			sum += o.total
		}
		return sum
	}
	return 0
}

// PickTx draws a transaction type from the mix.
func PickTx(s *rng.Stream) int {
	u := s.Next()
	for t, cum := range txMix {
		if u <= cum {
			return t
		}
	}
	return numTxTypes - 1
}

// RunBatch executes n mixed transactions against the warehouse and
// returns the accumulated check value.
func (w *Warehouse) RunBatch(n int, s *rng.Stream) float64 {
	var check float64
	for i := 0; i < n; i++ {
		check += w.Execute(PickTx(s), s)
	}
	// Bound the order log like the real benchmark's steady-state heap.
	if len(w.orders) > 16*itemsPerWarehouse {
		kept := copyOrders(w.orders[len(w.orders)-8*itemsPerWarehouse:])
		w.orders = kept
		w.delivered = 0
	}
	return check
}

func copyOrders(o []order) []order {
	out := make([]order, len(o))
	copy(out, o)
	return out
}

// Validate sanity-checks warehouse invariants after a run.
func (w *Warehouse) Validate() error {
	for i, st := range w.stock {
		if st < 0 {
			return fmt.Errorf("ssj: negative stock at item %d", i)
		}
	}
	if w.delivered > len(w.orders) {
		return fmt.Errorf("ssj: delivered %d beyond order log %d", w.delivered, len(w.orders))
	}
	return nil
}
