// Package threatintel is the reproduction's substitute for the Cymon threat
// intelligence API the paper queries to classify incorrect answers
// (§IV-C2, Fig. 4). It provides a seeded database of malicious IPv4
// addresses, each carrying one or more categorized reports, and the same
// aggregation rule the paper applies: "when there are multiple reports for
// different categories, the most frequently reported category is selected."
//
// A Feed deterministically generates the threat landscape of one campaign
// year: the addresses the paper names explicitly (74.220.199.15,
// 208.91.197.91 with its Fig. 4 multi-category reports, 141.8.225.68) plus
// synthetic addresses filling each Table IX category to its reported
// unique-IP count. The population compiler arms its manipulating resolvers
// with exactly these addresses, and the analysis pipeline rediscovers them
// through Lookup — the same two-sided role Cymon plays in the paper.
package threatintel

import (
	"fmt"
	"math/rand"
	"sort"

	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

// Report is one vendor report about an address.
type Report struct {
	Category paperdata.MalCategory
	Source   string
	// Count is the number of sightings behind the report; the dominant
	// category is the one with the highest total count.
	Count int
}

// Record is the database entry for one address.
type Record struct {
	Addr    ipv4.Addr
	Reports []Report
}

// Dominant returns the most frequently reported category, breaking ties by
// Table IX order (malware first), matching the paper's aggregation rule.
func (r Record) Dominant() paperdata.MalCategory {
	totals := make(map[paperdata.MalCategory]int)
	for _, rep := range r.Reports {
		totals[rep.Category] += rep.Count
	}
	best := paperdata.MalCategory("")
	bestN := -1
	for _, cat := range paperdata.MalCategories {
		if n := totals[cat]; n > bestN {
			best, bestN = cat, n
		}
	}
	return best
}

// DB is an in-memory threat intelligence database.
type DB struct {
	records map[ipv4.Addr]*Record
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{records: make(map[ipv4.Addr]*Record)}
}

// Add appends reports for addr.
func (db *DB) Add(addr ipv4.Addr, reports ...Report) {
	rec, ok := db.records[addr]
	if !ok {
		rec = &Record{Addr: addr}
		db.records[addr] = rec
	}
	rec.Reports = append(rec.Reports, reports...)
}

// Lookup returns the record for addr. ok is false when the address has no
// reports — the common case for the benign majority of incorrect answers.
func (db *DB) Lookup(addr ipv4.Addr) (Record, bool) {
	rec, ok := db.records[addr]
	if !ok {
		return Record{}, false
	}
	out := Record{Addr: rec.Addr, Reports: append([]Report(nil), rec.Reports...)}
	return out, true
}

// Dominant returns the dominant category of addr's reports (see
// Record.Dominant) without Lookup's defensive copy of the report list —
// the per-packet path of the analysis accumulator.
func (db *DB) Dominant(addr ipv4.Addr) (paperdata.MalCategory, bool) {
	rec, ok := db.records[addr]
	if !ok {
		return "", false
	}
	return rec.Dominant(), true
}

// Len returns the number of distinct reported addresses.
func (db *DB) Len() int { return len(db.records) }

// Addrs returns all reported addresses in ascending order.
func (db *DB) Addrs() []ipv4.Addr {
	out := make([]ipv4.Addr, 0, len(db.records))
	for a := range db.records {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Feed is the deterministic threat landscape of one campaign year.
type Feed struct {
	Year paperdata.Year
	DB   *DB
	// ByCategory lists the addresses whose dominant category is each Table
	// IX category, in generation order (named addresses first).
	ByCategory map[paperdata.MalCategory][]ipv4.Addr
}

// namedCategory pins the paper's named addresses to the malware row (the
// 22,805 packets of §IV-C1 fit inside Table IX's malware R2 budget).
var namedCategory = paperdata.CatMalware

// fig4Reports reproduces Fig. 4's multi-category Cymon record for
// 208.91.197.91: malware dominant, with phishing and botnet reports, and
// the Ransomware Tracker listing mentioned in §IV-C1.
func fig4Reports() []Report {
	return []Report{
		{Category: paperdata.CatMalware, Source: "Cymon", Count: 14},
		{Category: paperdata.CatPhishing, Source: "Cymon", Count: 6},
		{Category: paperdata.CatBotnet, Source: "Cymon", Count: 3},
		{Category: paperdata.CatMalware, Source: "Ransomware Tracker", Count: 2},
	}
}

// NewFeed builds the year's threat landscape. Synthetic addresses are drawn
// deterministically from rng seedings inside the given address pool (they
// must be public, routable and outside the scan coset is NOT required —
// answer IPs are arbitrary).
func NewFeed(year paperdata.Year, seed int64) *Feed {
	f := &Feed{
		Year:       year,
		DB:         NewDB(),
		ByCategory: make(map[paperdata.MalCategory][]ipv4.Addr),
	}
	rng := rand.New(rand.NewSource(seed))
	reserved := ipv4.NewReservedBlocklist()

	used := make(map[ipv4.Addr]bool)
	add := func(addr ipv4.Addr, cat paperdata.MalCategory, reports ...Report) {
		f.DB.Add(addr, reports...)
		f.ByCategory[cat] = append(f.ByCategory[cat], addr)
		used[addr] = true
	}

	// Named addresses first: they are the top contributors of Table VIII.
	for _, name := range sortedNames(paperdata.NamedMalicious[year]) {
		addr := ipv4.MustParseAddr(name)
		if name == "208.91.197.91" {
			add(addr, namedCategory, fig4Reports()...)
			continue
		}
		add(addr, namedCategory,
			Report{Category: namedCategory, Source: "Cymon", Count: 5})
	}

	// Fill every category to its Table IX unique-IP count with synthetic
	// addresses. Multi-category records are generated for a fraction of
	// them (as Fig. 4 shows is common); the dominant category stays the
	// intended one because its count is strictly largest.
	for _, cat := range paperdata.MalCategories {
		want := int(paperdata.MaliciousTable[year][cat].IPs)
		have := len(f.ByCategory[cat])
		for i := have; i < want; i++ {
			addr := syntheticAddr(rng, reserved, used)
			reports := []Report{{Category: cat, Source: "Cymon", Count: 4 + rng.Intn(8)}}
			if rng.Intn(3) == 0 { // secondary, weaker report
				other := paperdata.MalCategories[rng.Intn(len(paperdata.MalCategories))]
				if other != cat {
					reports = append(reports, Report{Category: other, Source: "Cymon", Count: 1 + rng.Intn(3)})
				}
			}
			add(addr, cat, reports...)
		}
	}
	return f
}

// truthRange is the ground-truth answer range of dnssrv.TruthAddr
// (96.0.0.0/6). Synthetic malicious addresses must stay out of it so a
// manipulated answer can never coincide with a query's true address.
var truthRange = ipv4.MustParseBlock("96.0.0.0/6")

// syntheticAddr draws a fresh public unicast address outside the
// ground-truth range.
func syntheticAddr(rng *rand.Rand, reserved *ipv4.Blocklist, used map[ipv4.Addr]bool) ipv4.Addr {
	for {
		a := ipv4.Addr(rng.Uint32())
		if reserved.Contains(a) || truthRange.Contains(a) || used[a] {
			continue
		}
		return a
	}
}

func sortedNames(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Addresses returns the feed's addresses for a category in generation order.
func (f *Feed) Addresses(cat paperdata.MalCategory) []ipv4.Addr {
	return append([]ipv4.Addr(nil), f.ByCategory[cat]...)
}

// Summary renders a Fig. 4-style report block for an address.
func (f *Feed) Summary(addr ipv4.Addr) string {
	rec, ok := f.DB.Lookup(addr)
	if !ok {
		return fmt.Sprintf("%s: no reports", addr)
	}
	s := fmt.Sprintf("%s: dominant=%s reports=%d\n", addr, rec.Dominant(), len(rec.Reports))
	for _, r := range rec.Reports {
		s += fmt.Sprintf("  - %-16s x%d (%s)\n", r.Category, r.Count, r.Source)
	}
	return s
}
