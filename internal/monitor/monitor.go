package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/appscript"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// AccessRecord is the monitor's merged view of one unique access (one
// cookie on one account).
type AccessRecord struct {
	Account string
	webmail.Access
}

// Duration returns tlast - t0 for the access (Figure 1's x-axis).
func (r AccessRecord) Duration() time.Duration { return r.Last.Sub(r.First) }

// ScrapeFailure records the moment the scraper lost an account.
type ScrapeFailure struct {
	Account string
	Time    time.Time
	Reason  string // "password-changed" or "suspended"
}

// Sink receives the monitoring pipeline's observations as they
// happen, instead of waiting for the end-of-run Dataset extraction.
// The streaming classification pipeline implements it: each shard's
// store/monitor pair feeds its shard's classifier while simulated
// time advances.
//
// Delivery contract: ObserveAccess carries the latest activity row
// for one (account, cookie) pair and may fire repeatedly as the row's
// Last advances — receivers keep the newest. The §4.1 self-filter
// (the monitor's own cookies, the infrastructure's city) is applied
// before delivery, so sinks see exactly the rows Dataset would
// export. ObserveNotification forwards every script notification
// (including heartbeats); ObserveFailure fires once per lost account.
type Sink interface {
	ObserveAccess(AccessRecord)
	ObserveNotification(appscript.Notification)
	ObserveFailure(ScrapeFailure)
}

// Store accumulates everything the monitoring pipeline observes.
// It is safe for concurrent use.
type Store struct {
	mu            sync.Mutex
	notifications []appscript.Notification
	// byAccount indexes notifications by account (positions in the
	// notifications slice), maintained at Notify time so per-account
	// lookups never scan the whole fleet's feed.
	byAccount map[string][]int
	// accesses holds each account's latest-row-per-cookie state as
	// parallel columns (see columnar.go) instead of maps of boxed
	// structs: a million-account fleet keeps one obsTable per account,
	// not one heap object per observed row.
	accesses map[string]*obsTable
	// changed is recordAccesses's reusable delta buffer; its contents
	// are only valid until the next recordAccesses call (scrape ticks
	// on one store are serialized by the owning scheduler, and
	// scrapeOne consumes the delta before returning).
	changed       []webmail.Access
	failures      []ScrapeFailure
	failed        map[string]bool // account -> scraper locked out
	lastHeartbeat map[string]time.Time
	sink          Sink
}

// SetSink registers a streaming observer. Call before the run starts;
// events already recorded are not replayed.
func (s *Store) SetSink(sink Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
}

// Sink returns the registered streaming observer (nil if none).
func (s *Store) Sink() Sink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byAccount:     make(map[string][]int),
		accesses:      make(map[string]*obsTable),
		failed:        make(map[string]bool),
		lastHeartbeat: make(map[string]time.Time),
	}
}

// Notify implements appscript.Notifier.
func (s *Store) Notify(n appscript.Notification) {
	s.mu.Lock()
	if n.Kind == appscript.NoteHeartbeat {
		s.lastHeartbeat[n.Account] = n.Time
	} else {
		s.byAccount[n.Account] = append(s.byAccount[n.Account], len(s.notifications))
		s.notifications = append(s.notifications, n)
	}
	sink := s.sink
	s.mu.Unlock()
	if sink != nil {
		sink.ObserveNotification(n)
	}
}

// Notifications returns a copy of all collected notifications, in
// arrival order. Heartbeats are not logged: each account's newest one
// is summarised in LastHeartbeat (a registered Sink still sees every
// heartbeat).
func (s *Store) Notifications() []appscript.Notification {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]appscript.Notification, len(s.notifications))
	copy(out, s.notifications)
	return out
}

// NotificationsFor returns the notifications for one account, in
// arrival order. The per-account index makes this O(matches) instead
// of a linear scan over every account's notifications. As with
// Notifications, heartbeats are summarised in LastHeartbeat, not
// logged.
func (s *Store) NotificationsFor(account string) []appscript.Notification {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.byAccount[account]
	if len(idx) == 0 {
		return nil
	}
	out := make([]appscript.Notification, len(idx))
	for i, j := range idx {
		out[i] = s.notifications[j]
	}
	return out
}

// recordAccesses merges freshly scraped activity rows and returns the
// rows that actually changed since the last scrape — the delta the
// streaming sink needs (unchanged rows would only make the classifier
// rewrite identical state).
// The returned slice aliases the store's reusable buffer: it is valid
// only until the next recordAccesses call.
func (s *Store) recordAccesses(account string, rows []webmail.Access) []webmail.Access {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.accesses[account]
	if !ok {
		t = &obsTable{}
		s.accesses[account] = t
	}
	s.changed = s.changed[:0]
	for _, r := range rows {
		if t.observe(r) {
			s.changed = append(s.changed, r)
		}
	}
	return s.changed
}

// recordFailure notes a lost account (first failure only).
func (s *Store) recordFailure(account, reason string, at time.Time) {
	s.mu.Lock()
	if s.failed[account] {
		s.mu.Unlock()
		return
	}
	s.failed[account] = true
	f := ScrapeFailure{Account: account, Time: at, Reason: reason}
	s.failures = append(s.failures, f)
	sink := s.sink
	s.mu.Unlock()
	if sink != nil {
		sink.ObserveFailure(f)
	}
}

// Failures returns all scrape failures in order of occurrence.
func (s *Store) Failures() []ScrapeFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ScrapeFailure, len(s.failures))
	copy(out, s.failures)
	return out
}

// LastHeartbeat reports the most recent heartbeat from an account.
func (s *Store) LastHeartbeat(account string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.lastHeartbeat[account]
	return t, ok
}

// tracked is the monitor's per-account scraping state. Its mutable
// fields (lastSeen, failed) are touched only from scrape ticks, which
// the owning scheduler serializes.
type tracked struct {
	account  string
	password string
	cookie   string // the scraper's own browser cookie
	// probe answers "did anything scraper-visible change?" with one
	// atomic load — the version gate that lets a quiet account cost
	// ~zero per scrape tick.
	probe webmail.VersionProbe
	// lastSeen is the account accessVersion after our previous scrape
	// (our own login included, so a quiet account compares equal on
	// the next tick). It doubles as the ActivityPageSince cursor.
	lastSeen uint64
	failed   bool // scraper locked out; mirrors Store.failed
}

// Monitor drives the activity-page scraping. It holds the original
// credentials of every honey account (a hijack makes them stale, which
// is exactly the visibility loss the paper describes).
type Monitor struct {
	svc   *webmail.Service
	sched *simtime.Scheduler
	store *Store

	// SelfCity is where the monitoring infrastructure runs; §4.1
	// removes all accesses originating there.
	selfCity string
	endpoint netsim.Endpoint
	jar      *netsim.CookieJar // nil -> use the platform's jar
	gateOff  bool              // Config.DisableVersionGate

	mu      sync.Mutex
	tracked map[string]*tracked
	order   []*tracked // sorted by account; rebuilt after Track
	stale   bool       // order needs a rebuild
	stop    func()

	// rowScratch is scrapeOne's reusable delta buffer; scrape ticks
	// are serialized by the owning scheduler.
	rowScratch []webmail.Access
}

// Config parameterises a Monitor.
type Config struct {
	Service   *webmail.Service
	Scheduler *simtime.Scheduler
	Store     *Store
	// Endpoint is the infrastructure's network identity; its city
	// becomes the self-filter city.
	Endpoint netsim.Endpoint
	// Cookies, when set, issues the scraper's own cookies. Sharded
	// experiments give each shard's monitor a prefixed jar so cookie
	// values are independent of cross-shard interleaving; nil falls
	// back to the platform's jar.
	Cookies *netsim.CookieJar
	// DisableVersionGate turns off the version gate: every scrape
	// tick logs into every tracked account and copies the full
	// activity page, changed or not. The observed dataset is identical
	// either way; the ungated scrape is the reference the version-gate
	// tests and benchmarks compare against.
	DisableVersionGate bool
}

// New builds a Monitor.
func New(cfg Config) *Monitor {
	if cfg.Service == nil || cfg.Scheduler == nil || cfg.Store == nil {
		panic("monitor: Service, Scheduler and Store are required")
	}
	return &Monitor{
		svc:      cfg.Service,
		sched:    cfg.Scheduler,
		store:    cfg.Store,
		selfCity: cfg.Endpoint.City,
		endpoint: cfg.Endpoint,
		jar:      cfg.Cookies,
		gateOff:  cfg.DisableVersionGate,
		tracked:  make(map[string]*tracked),
	}
}

// Store returns the monitor's store.
func (m *Monitor) Store() *Store { return m.store }

// Track registers a honey account and the password that was leaked
// for it.
func (m *Monitor) Track(account, password string) {
	t := &tracked{account: account, password: password}
	if m.jar != nil {
		t.cookie = m.jar.Issue()
	} else {
		t.cookie = m.svc.NewCookie()
	}
	// An invalid probe (account not on the platform yet) disables the
	// gate for this account; every tick then attempts the login and
	// records the failure, as the ungated scraper did.
	t.probe, _ = m.svc.Probe(account)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tracked[account] = t
	m.stale = true // invalidate the cached scrape order
}

// UpdatePassword rotates the monitor's stored credential for a
// tracked account — the defender's half of a password reset. The
// failed flag clears so scraping resumes with the new password on the
// next tick; the Store-level failure record (if any) stays, because
// recordFailure is deliberately first-failure-only per account.
func (m *Monitor) UpdatePassword(account, newPassword string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.tracked[account]; ok {
		t.password = newPassword
		t.failed = false
	}
}

// Cursors returns every tracked account's scrape cursor — the
// account accessVersion after the scraper's previous visit. The
// snapshot engine serializes these and verifies that a resumed
// monitor re-tracks into identical cursor state.
func (m *Monitor) Cursors() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.tracked))
	for account, t := range m.tracked {
		out[account] = t.lastSeen
	}
	return out
}

// MonitorCookies returns the scraper's own cookies (used by the
// self-access filter).
func (m *Monitor) MonitorCookies() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool, len(m.tracked))
	for _, t := range m.tracked {
		out[t.cookie] = true
	}
	return out
}

// Start begins periodic scraping at the given interval; call the
// returned stop function (or Stop) to end it.
func (m *Monitor) Start(interval time.Duration) func() {
	stop := m.sched.Every(interval, "monitor-scrape", func(now time.Time) {
		m.ScrapeAll(now)
	})
	m.mu.Lock()
	m.stop = stop
	m.mu.Unlock()
	return stop
}

// Stop ends periodic scraping.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// ScrapeAll scrapes every tracked account once. The sorted account
// order is cached and only rebuilt after Track registers a new
// account, so steady-state ticks pay no per-tick sort.
func (m *Monitor) ScrapeAll(now time.Time) {
	m.mu.Lock()
	if m.stale {
		m.order = m.order[:0]
		for _, t := range m.tracked {
			m.order = append(m.order, t)
		}
		sort.Slice(m.order, func(i, j int) bool { return m.order[i].account < m.order[j].account })
		m.stale = false
	}
	order := m.order
	m.mu.Unlock()
	for _, t := range order {
		m.scrapeOne(t, now)
	}
}

// scrapeOne logs in with the monitor's credentials and pulls the
// activity-page rows changed since the previous scrape. The version
// gate makes a quiet account cost one atomic load: when nothing
// scraper-visible changed since our last visit (lastSeen includes the
// bump from our own login), the Login+ActivityPage round trip — and
// its EventLogin journal noise — is skipped entirely. Password changes
// and suspensions bump the access version, so the gate opens and the
// failed login is recorded on the first tick after the event, exactly
// as the ungated scraper would.
func (m *Monitor) scrapeOne(t *tracked, now time.Time) {
	if t.failed {
		return
	}
	if !m.gateOff && t.probe.Valid() && t.probe.AccessVersion() == t.lastSeen {
		return
	}
	session, err := m.svc.Login(t.account, t.password, t.cookie, m.endpoint)
	if err != nil {
		t.failed = true
		switch err {
		case webmail.ErrBadPassword:
			m.store.recordFailure(t.account, "password-changed", now)
		case webmail.ErrSuspended:
			m.store.recordFailure(t.account, "suspended", now)
		default:
			m.store.recordFailure(t.account, fmt.Sprintf("error: %v", err), now)
		}
		return
	}
	// Pull only the rows changed since the last scrape, streaming them
	// into a reusable buffer (scrape ticks are serialized by the
	// owning scheduler, so one buffer per monitor suffices and the
	// steady-state scrape allocates nothing). With the gate disabled
	// the cursor resets to 0 each tick, restoring the legacy full-page
	// copy (recordAccesses re-diffs it below either way).
	cursor := t.lastSeen
	if m.gateOff {
		cursor = 0
	}
	m.rowScratch = m.rowScratch[:0]
	version, err := session.ActivitySince(cursor, func(a webmail.Access) {
		m.rowScratch = append(m.rowScratch, a)
	})
	if err != nil {
		t.failed = true
		m.store.recordFailure(t.account, fmt.Sprintf("scrape: %v", err), now)
		return
	}
	t.lastSeen = version
	changed := m.store.recordAccesses(t.account, m.rowScratch)
	sink := m.store.Sink()
	if sink == nil {
		return
	}
	// Stream the delta with the §4.1 self-filter already applied, so
	// the sink sees exactly the records Dataset will export. The
	// monitor's cookie for this account is the only one of its cookies
	// that can appear on this account's activity page.
	for _, r := range changed {
		if r.Cookie == t.cookie {
			continue
		}
		if m.selfCity != "" && r.City == m.selfCity {
			continue
		}
		sink.ObserveAccess(AccessRecord{Account: t.account, Access: r})
	}
}

// Dataset extracts the analysis-ready access records, applying the
// §4.1 self-filter: the monitor's own cookies and any access from the
// infrastructure's city are dropped.
func (m *Monitor) Dataset() []AccessRecord {
	self := m.MonitorCookies()
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	var out []AccessRecord
	accounts := make([]string, 0, len(m.store.accesses))
	for a := range m.store.accesses {
		accounts = append(accounts, a)
	}
	sort.Strings(accounts)
	for _, a := range accounts {
		t := m.store.accesses[a]
		cookies := append([]string(nil), t.cookie...)
		sort.Strings(cookies)
		for _, c := range cookies {
			i := t.byCookie[c]
			if self[c] {
				continue
			}
			if m.selfCity != "" && t.city[i] == m.selfCity {
				continue
			}
			out = append(out, AccessRecord{Account: a, Access: t.materialize(i)})
		}
	}
	return out
}
