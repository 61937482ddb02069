package main

// Seeded input generation. Everything the program under test receives —
// fragments and query text — is built here from the run's seed, outside
// every timed region, so a later change can be rechecked on a seed that
// was not used while it was written.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
)

// auctionScale is the XMark scaling factor of the auction history
// (~510 persons, ~240 open and ~195 closed auctions).
const auctionScale = 0.02

// extraBids is the number of bids added to every open auction after the
// generated document: the history ingest-query's writes grow, sized so
// they grow it by little during one run.
const extraBids = 16

// historyInstant is the evaluation instant of history-query: after every
// generated version, so queries see the whole history.
var historyInstant = time.Date(2004, time.June, 1, 0, 0, 0, 0, time.UTC)

// auctionHistory is an XMark document fragmented for streaming plus
// extra versions of every person and open_auction filler.
type auctionHistory struct {
	structure *tagstruct.Structure
	frags     []*fragment.Fragment // publish order, root first
	persons   []*fragment.Fragment // latest version per person, by index
	opens     []*fragment.Fragment // latest version per open auction, by index
	nextID    int                  // first unused filler id
	bidTSID   int
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// genAuctionHistory builds the history-query / ingest-query data set.
func genAuctionHistory(seed uint64) *auctionHistory {
	s, frags, _ := xmark.GenerateFragments(xmark.Config{Scale: auctionScale, Seed: seed})
	h := &auctionHistory{structure: s, frags: frags}
	r := newRNG(seed ^ 0xa11c)
	personTSID := s.Named("person")[0].ID
	openTSID := s.Named("open_auction")[0].ID
	h.bidTSID = s.Named("bidder")[0].ID
	for _, f := range frags {
		if f.FillerID >= h.nextID {
			h.nextID = f.FillerID + 1
		}
		switch f.TSID {
		case personTSID:
			h.persons = append(h.persons, f)
		case openTSID:
			h.opens = append(h.opens, f)
		}
	}
	// two later versions of every person (new phone) and extraBids new
	// bids on every open auction (bidder event plus the auction version
	// announcing its hole), all before historyInstant
	for v := 1; v <= 2; v++ {
		for i, p := range h.persons {
			at := time.Date(2004, time.Month(v*2), 1+r.IntN(28), r.IntN(24), 0, 0, 0, time.UTC)
			h.persons[i] = personVersion(p, at, fmt.Sprintf("+%d (%03d) %07d", v, r.IntN(999), r.IntN(9999999)))
			h.frags = append(h.frags, h.persons[i])
		}
	}
	for b := 1; b <= extraBids; b++ {
		for i := range h.opens {
			at := time.Date(2004, time.Month(1+b), 1+r.IntN(28), r.IntN(24), 0, 0, 0, time.UTC)
			bidder := fmt.Sprintf("person%d", r.IntN(len(h.persons)))
			h.frags = append(h.frags, h.addBid(i, at, bidder, fmt.Sprintf("%d.%02d", 1+r.IntN(50), r.IntN(99)))...)
		}
	}
	return h
}

// personVersion is a new version of a person filler with another phone.
func personVersion(p *fragment.Fragment, at time.Time, phone string) *fragment.Fragment {
	payload := p.Payload.Clone()
	el := payload.FirstChildElement("phone")
	el.Children = nil
	el.AppendChild(xmldom.NewText(phone))
	return fragment.New(p.FillerID, p.TSID, at, payload)
}

// addBid returns the fragments of one new bid by person on open auction
// i: the bidder event and the auction version announcing its hole.
func (h *auctionHistory) addBid(i int, at time.Time, person, increase string) []*fragment.Fragment {
	id := h.nextID
	h.nextID++
	bid := xmldom.NewElement("bidder")
	bid.AppendChild(xmldom.TextElem("date", at.Format("01/02/2006")))
	bid.AppendChild(xmldom.TextElem("time", at.Format("15:04:05")))
	ref := xmldom.NewElement("personref")
	ref.SetAttr("person", person)
	bid.AppendChild(ref)
	bid.AppendChild(xmldom.TextElem("increase", increase))

	payload := h.opens[i].Payload.Clone()
	// the new hole goes after the last bidder hole (before <current>)
	pos := 0
	for j, c := range payload.Children {
		if fragment.IsHole(c) || c.Name == "initial" || c.Name == "reserve" {
			pos = j + 1
		}
	}
	payload.InsertChildAt(pos, fragment.NewHole(id, h.bidTSID))
	h.opens[i] = fragment.New(h.opens[i].FillerID, h.opens[i].TSID, at, payload)
	return []*fragment.Fragment{fragment.New(id, h.bidTSID, at, bid), h.opens[i]}
}

// creditStructure is the credit-card stream schema of cmd/streamdemo.
const creditStructure = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="6" name="vendor"/>
      <tag type="temporal" id="7" name="status"/>
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

// creditStream generates the standing-stream input: an opening document
// of many accounts, then arrivals of (account version announcing a new
// transaction hole, transaction event) pairs, one per next call.
type creditStream struct {
	r       *rand.Rand
	opening []*fragment.Fragment
	holes   []string // per account: the holes its next version carries
	at      time.Time
	n       int // arrivals generated
}

const creditAccounts = 256

// txIDBase is the first transaction filler id: after the root, account
// and creditLimit fillers.
const txIDBase = 1 + 2*creditAccounts

var creditBase = time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)

func newCreditStream(seed uint64) *creditStream {
	cs := &creditStream{r: newRNG(seed ^ 0xc4ed17), holes: make([]string, creditAccounts), at: creditBase}
	var root strings.Builder
	root.WriteString("<creditAccounts>")
	for a := 0; a < creditAccounts; a++ {
		fmt.Fprintf(&root, `<hole id="%d" tsid="2"/>`, 1+2*a)
	}
	root.WriteString("</creditAccounts>")
	cs.opening = append(cs.opening, fragment.New(0, 1, creditBase, parseEl(root.String())))
	for a := 0; a < creditAccounts; a++ {
		cs.holes[a] = fmt.Sprintf(`<hole id="%d" tsid="4"/>`, 2+2*a)
		cs.opening = append(cs.opening,
			fragment.New(1+2*a, 2, creditBase, parseEl(accountXML(a, cs.holes[a]))),
			fragment.New(2+2*a, 4, creditBase, parseEl(fmt.Sprintf(`<creditLimit>%d</creditLimit>`, 1000*(1+cs.r.IntN(9))))))
	}
	return cs
}

// next returns the next arrival and its event time.
func (cs *creditStream) next() ([]*fragment.Fragment, time.Time) {
	a := cs.r.IntN(creditAccounts)
	tx := txIDBase + cs.n
	cs.n++
	cs.at = cs.at.Add(time.Duration(5+cs.r.IntN(50)) * time.Second)
	cs.holes[a] += fmt.Sprintf(`<hole id="%d" tsid="5"/>`, tx)
	return []*fragment.Fragment{
		fragment.New(1+2*a, 2, cs.at, parseEl(accountXML(a, cs.holes[a]))),
		fragment.New(tx, 5, cs.at, parseEl(fmt.Sprintf(
			`<transaction id="t%d"><vendor>V%d</vendor><amount>%d</amount></transaction>`,
			tx, cs.r.IntN(40), 10+cs.r.IntN(990)))),
	}, cs.at
}

func parseEl(src string) *xmldom.Node { return xmldom.MustParseString(src).Root() }

func accountXML(a int, holes string) string {
	return fmt.Sprintf(`<account id="a%d"><customer>C%d</customer>%s</account>`, a, a, holes)
}
