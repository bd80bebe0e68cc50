// Package tpch implements a from-scratch deterministic TPC-H data
// generator (the dbgen substitution documented in DESIGN.md) and the 22
// benchmark queries, each hand-coded twice: an encoding-aware CodecDB plan
// using the in-situ operators, and an encoding-oblivious baseline plan
// that decodes columns before processing — the paper's experimental
// contrast (Fig 6, Fig 7). The two plans of every query are checked equal
// in tests, which is the correctness argument for both.
//
// Schema, key distributions, date ranges, and the categorical vocabularies
// (ship modes, segments, brands, containers, priorities) follow the TPC-H
// specification closely enough that every query predicate has its intended
// selectivity; text comment fields are synthetic word salads.
package tpch

import (
	"fmt"
	"math/rand"
	"time"
)

// Scale multipliers from the TPC-H spec (rows at SF=1).
const (
	supplierPerSF = 10_000
	customerPerSF = 150_000
	partPerSF     = 200_000
	ordersPerSF   = 1_500_000
)

// Dates are stored as yyyymmdd integers; comparisons work directly and
// dictionary encoding keeps them order-preserving.
var (
	startDate = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	endDate   = time.Date(1998, 8, 2, 0, 0, 0, 0, time.UTC)
)

// totalDays is the orderdate range in days.
var totalDays = int(endDate.Sub(startDate).Hours() / 24)

// ymd converts a day offset from startDate to a yyyymmdd integer.
func ymd(dayOffset int) int64 {
	d := startDate.AddDate(0, 0, dayOffset)
	return int64(d.Year()*10000 + int(d.Month())*100 + d.Day())
}

// Date converts a calendar date to the yyyymmdd representation used in
// query predicates.
func Date(y, m, d int) int64 { return int64(y*10000 + m*100 + d) }

// Fixed TPC-H vocabularies.
var (
	RegionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	NationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// nationRegion maps nation key to region key (spec Appendix).
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	Segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	Priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	ShipModes  = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	Instructs  = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}

	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	containerSyl1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containerSyl2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	colors = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower",
		"cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
		"floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
		"green", "grey", "honeydew", "hot", "indian", "ivory", "khaki",
		"lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
		"magenta", "maroon", "medium", "metallic", "midnight", "mint",
		"misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
		"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow",
		"spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet",
		"wheat", "white", "yellow",
	}

	commentWords = []string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
		"requests", "accounts", "packages", "instructions", "theodolites",
		"pinto", "beans", "foxes", "ideas", "dependencies", "excuses",
		"platelets", "asymptotes", "courts", "dolphins", "multipliers",
		"sauternes", "warthogs", "frets", "dinos", "attainments", "are",
		"sleep", "nag", "wake", "cajole", "haggle", "hang", "bold", "final",
		"express", "special", "pending", "regular", "even", "silent",
	}
)

// Table column vectors; all tables are struct-of-arrays.
type Region struct {
	RegionKey []int64
	Name      [][]byte
	Comment   [][]byte
}

type Nation struct {
	NationKey []int64
	Name      [][]byte
	RegionKey []int64
	Comment   [][]byte
}

type Supplier struct {
	SuppKey   []int64
	Name      [][]byte
	Address   [][]byte
	NationKey []int64
	Phone     [][]byte
	AcctBal   []float64
	Comment   [][]byte
}

type Customer struct {
	CustKey    []int64
	Name       [][]byte
	Address    [][]byte
	NationKey  []int64
	Phone      [][]byte
	AcctBal    []float64
	MktSegment [][]byte
	Comment    [][]byte
}

type Part struct {
	PartKey     []int64
	Name        [][]byte
	Mfgr        [][]byte
	Brand       [][]byte
	Type        [][]byte
	Size        []int64
	Container   [][]byte
	RetailPrice []float64
	Comment     [][]byte
}

type PartSupp struct {
	PartKey    []int64
	SuppKey    []int64
	AvailQty   []int64
	SupplyCost []float64
	Comment    [][]byte
}

type Orders struct {
	OrderKey      []int64
	CustKey       []int64
	OrderStatus   [][]byte
	TotalPrice    []float64
	OrderDate     []int64
	OrderPriority [][]byte
	Clerk         [][]byte
	ShipPriority  []int64
	Comment       [][]byte
}

type Lineitem struct {
	OrderKey      []int64
	PartKey       []int64
	SuppKey       []int64
	LineNumber    []int64
	Quantity      []int64
	ExtendedPrice []float64
	Discount      []float64
	Tax           []float64
	ReturnFlag    [][]byte
	LineStatus    [][]byte
	ShipDate      []int64
	CommitDate    []int64
	ReceiptDate   []int64
	ShipInstruct  [][]byte
	ShipMode      [][]byte
	Comment       [][]byte
}

// Data is a fully generated TPC-H database.
type Data struct {
	SF       float64
	Region   Region
	Nation   Nation
	Supplier Supplier
	Customer Customer
	Part     Part
	PartSupp PartSupp
	Orders   Orders
	Lineitem Lineitem
}

// Generate produces a deterministic TPC-H dataset at the given scale
// factor.
func Generate(sf float64, seed int64) *Data {
	if sf <= 0 {
		sf = 0.01
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Data{SF: sf}
	d.genRegionNation(rng)
	d.genSupplier(rng, scaled(sf, supplierPerSF))
	d.genCustomer(rng, scaled(sf, customerPerSF))
	d.genPart(rng, scaled(sf, partPerSF))
	d.genPartSupp(rng)
	d.genOrdersLineitem(rng, scaled(sf, ordersPerSF))
	return d
}

func scaled(sf float64, base int) int {
	n := int(sf * float64(base))
	if n < 1 {
		n = 1
	}
	return n
}

func comment(rng *rand.Rand, words int) []byte {
	out := []byte{}
	for i := 0; i < words; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, commentWords[rng.Intn(len(commentWords))]...)
	}
	return out
}

func (d *Data) genRegionNation(rng *rand.Rand) {
	for i, name := range RegionNames {
		d.Region.RegionKey = append(d.Region.RegionKey, int64(i))
		d.Region.Name = append(d.Region.Name, []byte(name))
		d.Region.Comment = append(d.Region.Comment, comment(rng, 5))
	}
	for i, name := range NationNames {
		d.Nation.NationKey = append(d.Nation.NationKey, int64(i))
		d.Nation.Name = append(d.Nation.Name, []byte(name))
		d.Nation.RegionKey = append(d.Nation.RegionKey, nationRegion[i])
		d.Nation.Comment = append(d.Nation.Comment, comment(rng, 6))
	}
}

func phone(rng *rand.Rand, nation int64) []byte {
	return []byte(fmt.Sprintf("%d-%03d-%03d-%04d", 10+nation, rng.Intn(900)+100, rng.Intn(900)+100, rng.Intn(9000)+1000))
}

func (d *Data) genSupplier(rng *rand.Rand, n int) {
	s := &d.Supplier
	for i := 1; i <= n; i++ {
		nation := int64(rng.Intn(len(NationNames)))
		s.SuppKey = append(s.SuppKey, int64(i))
		s.Name = append(s.Name, []byte(fmt.Sprintf("Supplier#%09d", i)))
		s.Address = append(s.Address, comment(rng, 2))
		s.NationKey = append(s.NationKey, nation)
		s.Phone = append(s.Phone, phone(rng, nation))
		s.AcctBal = append(s.AcctBal, float64(rng.Intn(1100000)-100000)/100)
		// ~0.05% of suppliers carry the "Customer Complaints" marker (Q16).
		c := comment(rng, 6)
		if rng.Intn(2000) == 0 {
			c = append(c, []byte(" Customer Complaints")...)
		}
		s.Comment = append(s.Comment, c)
	}
}

func (d *Data) genCustomer(rng *rand.Rand, n int) {
	c := &d.Customer
	for i := 1; i <= n; i++ {
		nation := int64(rng.Intn(len(NationNames)))
		c.CustKey = append(c.CustKey, int64(i))
		c.Name = append(c.Name, []byte(fmt.Sprintf("Customer#%09d", i)))
		c.Address = append(c.Address, comment(rng, 2))
		c.NationKey = append(c.NationKey, nation)
		c.Phone = append(c.Phone, phone(rng, nation))
		c.AcctBal = append(c.AcctBal, float64(rng.Intn(1100000)-100000)/100)
		c.MktSegment = append(c.MktSegment, []byte(Segments[rng.Intn(len(Segments))]))
		c.Comment = append(c.Comment, comment(rng, 7))
	}
}

func (d *Data) genPart(rng *rand.Rand, n int) {
	p := &d.Part
	for i := 1; i <= n; i++ {
		mfgr := rng.Intn(5) + 1
		brand := mfgr*10 + rng.Intn(5) + 1
		typ := fmt.Sprintf("%s %s %s",
			typeSyl1[rng.Intn(len(typeSyl1))],
			typeSyl2[rng.Intn(len(typeSyl2))],
			typeSyl3[rng.Intn(len(typeSyl3))])
		name := fmt.Sprintf("%s %s %s",
			colors[rng.Intn(len(colors))], colors[rng.Intn(len(colors))], colors[rng.Intn(len(colors))])
		p.PartKey = append(p.PartKey, int64(i))
		p.Name = append(p.Name, []byte(name))
		p.Mfgr = append(p.Mfgr, []byte(fmt.Sprintf("Manufacturer#%d", mfgr)))
		p.Brand = append(p.Brand, []byte(fmt.Sprintf("Brand#%d", brand)))
		p.Type = append(p.Type, []byte(typ))
		p.Size = append(p.Size, int64(rng.Intn(50)+1))
		p.Container = append(p.Container, []byte(containerSyl1[rng.Intn(len(containerSyl1))]+" "+containerSyl2[rng.Intn(len(containerSyl2))]))
		p.RetailPrice = append(p.RetailPrice, 900+float64(i%200000)/10)
		p.Comment = append(p.Comment, comment(rng, 3))
	}
}

func (d *Data) genPartSupp(rng *rand.Rand) {
	ps := &d.PartSupp
	nSupp := len(d.Supplier.SuppKey)
	for _, pk := range d.Part.PartKey {
		for j := 0; j < 4; j++ {
			sk := int64((int(pk)+j*(nSupp/4+1))%nSupp) + 1
			ps.PartKey = append(ps.PartKey, pk)
			ps.SuppKey = append(ps.SuppKey, sk)
			ps.AvailQty = append(ps.AvailQty, int64(rng.Intn(9999)+1))
			ps.SupplyCost = append(ps.SupplyCost, float64(rng.Intn(99900)+100)/100)
			ps.Comment = append(ps.Comment, comment(rng, 5))
		}
	}
}

func (d *Data) genOrdersLineitem(rng *rand.Rand, nOrders int) {
	o := &d.Orders
	l := &d.Lineitem
	nCust := len(d.Customer.CustKey)
	nPart := len(d.Part.PartKey)
	nSupp := len(d.Supplier.SuppKey)
	currentYMD := ymd(totalDays) // "today" used for status flags
	for i := 1; i <= nOrders; i++ {
		// Spec uses sparse order keys; dense keys keep joins identical.
		orderKey := int64(i)
		custKey := int64(rng.Intn(nCust) + 1)
		orderDay := rng.Intn(totalDays - 151)
		orderDate := ymd(orderDay)
		nLines := rng.Intn(7) + 1
		var totalPrice float64
		allF, allO := true, true
		for ln := 1; ln <= nLines; ln++ {
			partKey := int64(rng.Intn(nPart) + 1)
			suppKey := int64((int(partKey)+ln*(nSupp/4+1))%nSupp) + 1
			qty := int64(rng.Intn(50) + 1)
			price := float64(qty) * (900 + float64(int(partKey)%200000)/10) / 10
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			shipDay := orderDay + rng.Intn(121) + 1
			commitDay := orderDay + rng.Intn(61) + 30
			receiptDay := shipDay + rng.Intn(30) + 1
			shipDate := ymd(shipDay)
			receiptDate := ymd(receiptDay)
			var returnFlag, lineStatus []byte
			if receiptDate <= currentYMD-170 { // delivered long ago
				if rng.Intn(2) == 0 {
					returnFlag = []byte("R")
				} else {
					returnFlag = []byte("A")
				}
			} else {
				returnFlag = []byte("N")
			}
			if shipDate > Date(1995, 6, 17) {
				lineStatus = []byte("O")
				allF = false
			} else {
				lineStatus = []byte("F")
				allO = false
			}
			l.OrderKey = append(l.OrderKey, orderKey)
			l.PartKey = append(l.PartKey, partKey)
			l.SuppKey = append(l.SuppKey, suppKey)
			l.LineNumber = append(l.LineNumber, int64(ln))
			l.Quantity = append(l.Quantity, qty)
			l.ExtendedPrice = append(l.ExtendedPrice, price)
			l.Discount = append(l.Discount, disc)
			l.Tax = append(l.Tax, tax)
			l.ReturnFlag = append(l.ReturnFlag, returnFlag)
			l.LineStatus = append(l.LineStatus, lineStatus)
			l.ShipDate = append(l.ShipDate, shipDate)
			l.CommitDate = append(l.CommitDate, ymd(commitDay))
			l.ReceiptDate = append(l.ReceiptDate, receiptDate)
			l.ShipInstruct = append(l.ShipInstruct, []byte(Instructs[rng.Intn(len(Instructs))]))
			l.ShipMode = append(l.ShipMode, []byte(ShipModes[rng.Intn(len(ShipModes))]))
			l.Comment = append(l.Comment, comment(rng, 4))
			totalPrice += price * (1 + tax) * (1 - disc)
		}
		status := []byte("P")
		if allF {
			status = []byte("F")
		} else if allO {
			status = []byte("O")
		}
		o.OrderKey = append(o.OrderKey, orderKey)
		o.CustKey = append(o.CustKey, custKey)
		o.OrderStatus = append(o.OrderStatus, status)
		o.TotalPrice = append(o.TotalPrice, totalPrice)
		o.OrderDate = append(o.OrderDate, orderDate)
		o.OrderPriority = append(o.OrderPriority, []byte(Priorities[rng.Intn(len(Priorities))]))
		o.Clerk = append(o.Clerk, []byte(fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1)))
		o.ShipPriority = append(o.ShipPriority, 0)
		o.Comment = append(o.Comment, comment(rng, 5))
	}
}
