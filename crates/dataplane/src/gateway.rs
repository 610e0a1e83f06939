//! The Colibri gateway (paper §3.2, §4.6).
//!
//! All Colibri traffic of an AS's end hosts passes through the gateway,
//! which is the *only* stateful data-plane component: it maps the `ResId`
//! of incoming EER packets to the reservation state obtained during setup
//! (path, `ResInfo`, `EERInfo`, hop authenticators), performs
//! deterministic token-bucket monitoring, stamps the high-precision
//! timestamp, and computes the hop validation field for every on-path AS
//! (Eq. 6) — thereby certifying to the rest of the path that the mandatory
//! flow monitoring has been performed.
//!
//! The paper's implementation keys a DPDK `rte_hash` by `ResId`, which
//! keeps a compact bucket array apart from the key data; so does this
//! gateway. An open-addressed index of 8 B entries — the `ResId` and the
//! cell its record starts at — under a fixed multiplicative hash
//! ([`ResIdHashing`]) takes 512 KiB at 2¹⁵ reservations, small enough for
//! L2. The records share one arena of 32 B cells, allocated in 1 MiB
//! chunks, with a free list per record length. A record is one
//! contiguous run of whole 64 B lines: a header line (`ResId`, `SrcAS`,
//! `EERInfo`, first egress, hop and version counts, token bucket), the
//! hop fields, then per live version its head and 32 B of compact σ
//! state per hop (σ and its CMAC subkey K2). Right after the index probe
//! a packet requests every line of its record at once, so its misses
//! overlap, then expands each hop's σ in the same `N`-wide AES pass that
//! MACs it: one key expansion and one AES block per on-path AS, whatever
//! the number of reservations (Fig. 5).

use crate::router::{for_each_by_width, LaneKernel};
use crate::telemetry::GatewayTelemetry;
use colibri_base::{
    Bandwidth, BwClass, Duration, HostAddr, Instant, InterfaceId, IsdAsId, ResId, ResIdHashing,
};
use colibri_crypto::{Cmac, CompactKey, Key};
use colibri_ctrl::{OwnedEer, OwnedEerVersion};
use colibri_monitor::TokenBucket;
use colibri_qdisc::{AdmitError, HtbConfig, Qdisc, QdiscStats, TrafficClass};
use colibri_telemetry::Registry;
use colibri_wire::mac::eer_hvfs;
use colibri_wire::{encode_packet_into, hvf_offset, EerInfo, HopField, ResInfo, HVF_LEN, MAX_HOPS};
use std::hash::BuildHasher;

/// Why the gateway refused to send a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// No reservation with this ID is installed.
    UnknownReservation(ResId),
    /// All versions of the reservation have expired, or the live one has
    /// no unique timestamp left before its expiry.
    Expired(ResId),
    /// The flow exceeded its reserved bandwidth; the packet is dropped
    /// (backpressure to the sender's congestion control, §3.2).
    RateLimited(ResId),
    /// The claimed source host does not own this reservation.
    WrongHost,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::UnknownReservation(r) => write!(f, "unknown reservation {r}"),
            GatewayError::Expired(r) => write!(f, "reservation {r} expired"),
            GatewayError::RateLimited(r) => write!(f, "reservation {r} rate-limited"),
            GatewayError::WrongHost => write!(f, "source host does not own the reservation"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// One 32-byte unit of the arena: half a record header, eight hop fields,
/// one version's [`Head`], or one hop's compact σ ([`CompactKey`]).
/// 32 B-aligned, so a chunk started on a 64 B boundary keeps every record
/// on whole cache lines.
#[derive(Clone, Copy, Default)]
#[repr(align(32))]
struct Cell(CompactKey);

impl Cell {
    fn bytes(&self) -> &[u8] {
        self.0.as_flattened()
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self.0.as_flattened_mut()
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_ne_bytes(self.bytes()[at..at + 8].try_into().expect("8 bytes"))
    }

    fn set_word(&mut self, at: usize, word: u64) {
        self.bytes_mut()[at..at + 8].copy_from_slice(&word.to_ne_bytes());
    }
}

/// Cells per 64 B line.
const CELLS_PER_LINE: usize = 2;

/// Cells of a record's header: one line.
const HEADER_CELLS: usize = CELLS_PER_LINE;

/// Hop fields per cell.
const HOPS_PER_CELL: usize = 32 / 4;

/// Most live versions a record holds: the header counts them in a byte.
const MAX_VERSIONS: usize = u8::MAX as usize;

/// A record's length in cells: the header line, ⌈hops / 8⌉ cells of hop
/// fields, then per live version (oldest first) one [`Head`] cell and
/// `hops` σ cells, rounded up to whole lines.
const fn record_cells(hops: usize, versions: usize) -> usize {
    (HEADER_CELLS + hops.div_ceil(HOPS_PER_CELL) + versions * (1 + hops))
        .next_multiple_of(CELLS_PER_LINE)
}

/// Index of version `v`'s head cell in a record; its σ cells follow.
fn head_at(hops: usize, v: usize) -> usize {
    HEADER_CELLS + hops.div_ceil(HOPS_PER_CELL) + v * (1 + hops)
}

/// One installed version's head: what its packets carry besides the
/// reservation's fixed fields, and its replay state. (The exact rate is
/// read only at install, from the owned EER.)
#[derive(Clone, Copy)]
struct Head {
    ver: u8,
    bw_class: BwClass,
    /// `ExpT`, which `Ts` counts down to.
    exp: Instant,
    /// Last timestamp issued on this version (`u64::MAX` before the
    /// first), to guarantee uniqueness of `Ts` (the duplicate-suppression
    /// ID, §4.3). Tracked per version because `Ts` is relative to the
    /// version's `ExpT`: a renewal moves the expiry forward and restarts
    /// the countdown higher up. Distinct versions cannot collide within
    /// the replay window, since their expiries differ by far more than
    /// the window.
    last_ts: u64,
}

/// Byte offset of `last_ts` in a head cell.
const LAST_TS_AT: usize = 16;

impl Head {
    fn encode(&self) -> Cell {
        let mut cell = Cell::default();
        let b = cell.bytes_mut();
        b[0] = self.ver;
        b[1] = self.bw_class.0;
        cell.set_word(8, self.exp.as_nanos());
        cell.set_word(LAST_TS_AT, self.last_ts);
        cell
    }

    fn decode(cell: &Cell) -> Head {
        let b = cell.bytes();
        Head {
            ver: b[0],
            bw_class: BwClass(b[1]),
            exp: Instant::from_nanos(cell.word(8)),
            last_ts: cell.word(LAST_TS_AT),
        }
    }
}

/// A record's fixed fields, read in place from its first line. The line
/// is, by byte: `ResId` 0–3, hop count 4, version count 5, first egress
/// 6–7, `SrcAS` 8–15, `EERInfo` 16–23, then the token bucket's rate
/// 24–31, depth in bytes 32–39, last refill 40–47 and nano-byte fill
/// 48–63.
struct Header {
    res_id: ResId,
    /// On-path ASes, `1..=MAX_HOPS`.
    hops: usize,
    /// Live versions, `1..=MAX_VERSIONS`.
    versions: usize,
    first_egress: InterfaceId,
    src_as: IsdAsId,
    eer_info: EerInfo,
}

impl Header {
    fn read(rec: &[Cell]) -> Header {
        let (c, b) = (&rec[0], rec[0].bytes());
        let half = |at: usize| u32::from_ne_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        Header {
            res_id: ResId(half(0)),
            hops: b[4].into(),
            versions: b[5].into(),
            first_egress: InterfaceId(u16::from_ne_bytes([b[6], b[7]])),
            src_as: IsdAsId::from_u64(c.word(8)),
            eer_info: EerInfo { src_host: HostAddr(half(16)), dst_host: HostAddr(half(20)) },
        }
    }

    fn write(&self, rec: &mut [Cell]) {
        let c = &mut rec[0];
        c.set_word(8, self.src_as.to_u64());
        let b = c.bytes_mut();
        b[0..4].copy_from_slice(&self.res_id.0.to_ne_bytes());
        (b[4], b[5]) = (self.hops as u8, self.versions as u8);
        b[6..8].copy_from_slice(&self.first_egress.0.to_ne_bytes());
        b[16..20].copy_from_slice(&self.eer_info.src_host.0.to_ne_bytes());
        b[20..24].copy_from_slice(&self.eer_info.dst_host.0.to_ne_bytes());
    }

    /// The length in cells of the record whose first cell is `first`.
    fn cells(first: &Cell) -> usize {
        let b = first.bytes();
        record_cells(b[4].into(), b[5].into())
    }
}

/// The record's token bucket, from the header line.
fn bucket(rec: &[Cell]) -> TokenBucket {
    let fill = &rec[1];
    let tokens = u128::from(fill.word(16)) | u128::from(fill.word(24)) << 64;
    let last = Instant::from_nanos(fill.word(8));
    TokenBucket::from_words(Bandwidth(rec[0].word(24)), fill.word(0), tokens, last)
}

/// Writes the bucket's fill and last refill, the only words a packet
/// changes.
fn set_fill(rec: &mut [Cell], bucket: &TokenBucket) {
    let (_, _, tokens, last) = bucket.to_words();
    rec[1].set_word(8, last.as_nanos());
    rec[1].set_word(16, tokens as u64);
    rec[1].set_word(24, (tokens >> 64) as u64);
}

/// Writes all of the bucket's words.
fn set_bucket(rec: &mut [Cell], bucket: &TokenBucket) {
    let (rate, burst_bytes, _, _) = bucket.to_words();
    rec[0].set_word(24, rate.as_bps());
    rec[1].set_word(0, burst_bytes);
    set_fill(rec, bucket);
}

/// Each version's head, oldest first.
fn heads(rec: &[Cell]) -> impl Iterator<Item = Head> + '_ {
    let h = Header::read(rec);
    (0..h.versions).map(move |v| Head::decode(&rec[head_at(h.hops, v)]))
}

/// The hop fields, decoded into the first `hops` entries.
fn hop_fields(rec: &[Cell], hops: usize) -> [HopField; MAX_HOPS] {
    let cells = &rec[HEADER_CELLS..HEADER_CELLS + hops.div_ceil(HOPS_PER_CELL)];
    let mut out = [HopField::new(0, 0); MAX_HOPS];
    for (eight, cell) in out.chunks_exact_mut(HOPS_PER_CELL).zip(cells) {
        for (hop, b) in eight.iter_mut().zip(cell.bytes().chunks_exact(4)) {
            *hop =
                HopField::new(u16::from_ne_bytes([b[0], b[1]]), u16::from_ne_bytes([b[2], b[3]]));
        }
    }
    out
}

/// Derives a version's compact σ keys at install, with the key
/// expansions and subkey blocks of up to eight hops interleaved.
struct CompactSigmas;

impl LaneKernel<Key> for CompactSigmas {
    type Out = CompactKey;

    fn run<const N: usize>(&self, keys: &[Key; N]) -> [CompactKey; N] {
        Cmac::compact_each(keys.each_ref().map(|k| &k.0))
    }
}

/// Stamps Eq. 6 for one packet's `(Ts, PktSize)` under a version's
/// compact σ cells, up to eight hops per AES batch, each hop's key
/// expanded in the same pass.
struct StampHvfs {
    ts: u64,
    pkt_size: usize,
}

impl LaneKernel<Cell> for StampHvfs {
    type Out = [u8; HVF_LEN];

    #[inline]
    fn run<const N: usize>(&self, sigmas: &[Cell; N]) -> [[u8; HVF_LEN]; N] {
        eer_hvfs(sigmas.each_ref().map(|c| &c.0), [(self.ts, self.pkt_size); N])
    }
}

/// Cells per arena chunk: 1 MiB.
const CHUNK_CELLS: usize = 1 << 15;

// Every record fits in one chunk.
const _: () = assert!(record_cells(MAX_HOPS, MAX_VERSIONS) <= CHUNK_CELLS);

/// The records: one arena of 32 B cells in fixed chunks, each record a
/// contiguous, line-aligned run of cells inside one chunk, addressed by
/// its `u32` cell offset. Freed records go on a free list per length, so
/// renewals and removals reuse cells instead of growing the arena.
#[derive(Default)]
struct Arena {
    /// Each chunk with the cell its first 64 B line starts at (0 or 1).
    /// A chunk's capacity is reserved whole, one spare cell included, but
    /// its cells are written, and so its pages touched, as records claim
    /// them.
    chunks: Vec<(Vec<Cell>, usize)>,
    /// Cells handed out so far; a fresh record starts here.
    top: usize,
    /// Freed record offsets, by record length in lines.
    free: Vec<Vec<u32>>,
}

impl Arena {
    /// A record of `cells` (whole lines): a freed one of that length if
    /// any, else the next cells of the last chunk, else a new chunk. The
    /// rest of a chunk too short for the record becomes a free record.
    fn alloc(&mut self, cells: usize) -> u32 {
        if let Some(at) = self.free.get_mut(cells / CELLS_PER_LINE).and_then(Vec::pop) {
            return at;
        }
        let end = self.chunks.len() * CHUNK_CELLS;
        if self.top + cells > end {
            if self.top < end {
                self.claim(end);
                self.free(self.top as u32, end - self.top);
            }
            let chunk = Vec::with_capacity(CHUNK_CELLS + 1);
            let base = chunk.as_ptr() as usize / size_of::<Cell>() % CELLS_PER_LINE;
            self.chunks.push((chunk, base));
            self.top = end;
        }
        self.claim(self.top + cells);
        self.top += cells;
        (self.top - cells) as u32
    }

    /// Writes the last chunk's cells up to offset `to`, within its
    /// capacity.
    fn claim(&mut self, to: usize) {
        let first = (self.chunks.len() - 1) * CHUNK_CELLS;
        let (chunk, base) = self.chunks.last_mut().expect("a chunk");
        chunk.resize(*base + to - first, Cell::default());
    }

    /// Frees record `at`, as long as its header says.
    fn release(&mut self, at: u32) {
        let cells = self.record(at).len();
        self.free(at, cells);
    }

    fn free(&mut self, at: u32, cells: usize) {
        let lines = cells / CELLS_PER_LINE;
        if self.free.len() <= lines {
            self.free.resize_with(lines + 1, Vec::new);
        }
        self.free[lines].push(at);
    }

    /// The claimed cells from `at` to the end of its chunk: a record
    /// whose header is not written yet.
    fn tail_mut(&mut self, at: u32) -> &mut [Cell] {
        let (chunk, base) = &mut self.chunks[at as usize / CHUNK_CELLS];
        &mut chunk[*base + at as usize % CHUNK_CELLS..]
    }

    /// Record `at`, as long as its header says.
    fn record(&self, at: u32) -> &[Cell] {
        let (chunk, base) = &self.chunks[at as usize / CHUNK_CELLS];
        let tail = &chunk[base + at as usize % CHUNK_CELLS..];
        &tail[..Header::cells(&tail[0])]
    }

    /// Like [`Arena::record`], mutably.
    fn record_mut(&mut self, at: u32) -> &mut [Cell] {
        let tail = self.tail_mut(at);
        let cells = Header::cells(&tail[0]);
        &mut tail[..cells]
    }
}

/// One index entry: a `ResId` and the cell its record starts at.
#[derive(Clone, Copy)]
struct Entry {
    res_id: ResId,
    at: u32,
}

/// The `at` of an empty entry: records start on whole lines.
const EMPTY: u32 = u32::MAX;

/// The `ResId` index: a flat array of 8 B entries, open-addressed by
/// linear probing from the [`ResIdHashing`] hash and kept at most half
/// full, with backward-shift delete. For the sequential ResIds of one
/// CServ the home entry is almost always the only probe. It keeps the
/// `ResId` beside the offset, so neither a probe nor growth reads a
/// record.
#[derive(Default)]
struct Index {
    entries: Box<[Entry]>,
    len: usize,
}

impl Index {
    fn home(&self, res_id: ResId) -> usize {
        ResIdHashing::default().hash_one(res_id) as usize & (self.entries.len() - 1)
    }

    /// The position of `res_id`'s entry, if any.
    fn find(&self, res_id: ResId) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mut i = self.home(res_id);
        // At most half full, so a probe always ends at an empty entry.
        loop {
            match self.entries[i] {
                Entry { at: EMPTY, .. } => return None,
                e if e.res_id == res_id => return Some(i),
                _ => i = (i + 1) & (self.entries.len() - 1),
            }
        }
    }

    /// The cell `res_id`'s record starts at, if installed.
    fn get(&self, res_id: ResId) -> Option<u32> {
        self.find(res_id).map(|i| self.entries[i].at)
    }

    /// Points `res_id` at the record at `at`, adding its entry if new.
    fn put(&mut self, res_id: ResId, at: u32) {
        if let Some(i) = self.find(res_id) {
            self.entries[i].at = at;
            return;
        }
        if 2 * (self.len + 1) > self.entries.len() {
            let grown = (2 * self.entries.len()).max(8);
            let empty = Entry { res_id: ResId(0), at: EMPTY };
            let old = std::mem::replace(&mut self.entries, vec![empty; grown].into_boxed_slice());
            old.iter().filter(|e| e.at != EMPTY).for_each(|&e| self.place(e));
        }
        self.place(Entry { res_id, at });
        self.len += 1;
    }

    /// Writes `e` at the first empty entry from its home on.
    fn place(&mut self, e: Entry) {
        let mut i = self.home(e.res_id);
        while self.entries[i].at != EMPTY {
            i = (i + 1) & (self.entries.len() - 1);
        }
        self.entries[i] = e;
    }

    /// Removes `res_id`'s entry, shifting later entries of its probe run
    /// back so that no lookup meets a hole before its entry, and returns
    /// where its record starts.
    fn remove(&mut self, res_id: ResId) -> Option<u32> {
        let mut hole = self.find(res_id)?;
        let at = self.entries[hole].at;
        self.len -= 1;
        let mask = self.entries.len() - 1;
        let mut i = (hole + 1) & mask;
        while self.entries[i].at != EMPTY {
            // The entry may move back unless its home lies in (hole, i].
            let home = self.home(self.entries[i].res_id);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.entries[hole] = self.entries[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.entries[hole].at = EMPTY;
        Some(at)
    }
}

/// The gateway's state layout, in two figures computed from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayLayout {
    /// Bytes per installed reservation: the index's size and every
    /// record's, over the number installed.
    pub bytes_per_reservation: f64,
    /// Most separate memory regions a packet touches outside the index:
    /// the chunks its record spans, which is 1 for every record.
    pub record_regions_per_packet: usize,
}

/// A successfully stamped packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedPacket {
    /// The serialized Colibri packet, HVFs filled.
    pub bytes: Vec<u8>,
    /// The egress interface of the first AS (where the gateway hands the
    /// packet to the border router).
    pub first_egress: colibri_base::InterfaceId,
}

/// How the gateway polices per-reservation bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QosMode {
    /// The paper's flat per-reservation token bucket (§4.8). Default, and
    /// the differential foil the hierarchical path is proven against.
    #[default]
    Flat,
    /// The four-level hierarchy of `colibri-qdisc`: uplink → class →
    /// reservation → host, with scavenging and best-effort AQM. With
    /// [`HtbConfig::degenerate`] the verdicts are bit-identical to
    /// [`QosMode::Flat`] (the reservation nodes *are* the flat monitor).
    Hierarchical(HtbConfig),
}

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Token-bucket burst allowance.
    pub burst: Duration,
    /// Bandwidth-policing mode (flat monitor or hierarchical qdisc).
    pub qos: QosMode,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self { burst: Duration::from_millis(50), qos: QosMode::Flat }
    }
}

/// The Colibri gateway of one AS.
pub struct Gateway {
    cfg: GatewayConfig,
    index: Index,
    arena: Arena,
    /// The hierarchical QoS tree, present iff `cfg.qos` is
    /// [`QosMode::Hierarchical`]. When present it replaces the per-record
    /// flat monitor as the admission authority; the record monitors are
    /// kept installed but not consulted, preserving the flat path as the
    /// differential foil.
    qdisc: Option<Qdisc>,
    telemetry: Option<GatewayTelemetry>,
    /// Counters for observability and the protection experiment.
    pub stats: GatewayStats,
}

/// Gateway counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Packets stamped and forwarded.
    pub forwarded: u64,
    /// Packets dropped by deterministic monitoring.
    pub rate_limited: u64,
    /// Packets dropped for other reasons.
    pub rejected: u64,
}

impl Gateway {
    /// An empty gateway.
    pub fn new(cfg: GatewayConfig) -> Self {
        let qdisc = match cfg.qos {
            QosMode::Flat => None,
            // All buckets start full, so building the tree at the epoch is
            // equivalent to building it at first use.
            QosMode::Hierarchical(htb) => Some(Qdisc::new(htb, Instant::EPOCH)),
        };
        Self {
            cfg,
            index: Index::default(),
            arena: Arena::default(),
            qdisc,
            telemetry: None,
            stats: GatewayStats::default(),
        }
    }

    /// Attaches telemetry (outcome counters plus the Volatile per-packet
    /// stamp-latency histogram), registered under `shard` in `registry`.
    /// Detached gateways — the default — pay one predictable branch per
    /// packet. A hierarchical gateway also registers the qdisc's per-node
    /// drop/shed/scavenge/sojourn metrics under the same shard.
    pub fn attach_telemetry(&mut self, registry: &Registry, shard: &str) {
        self.telemetry = Some(GatewayTelemetry::new(registry, shard));
        if let Some(q) = &mut self.qdisc {
            q.attach_telemetry(registry, shard);
        }
    }

    /// Installs (or refreshes) a reservation from the CServ's owned-EER
    /// state (Fig. 1b ➎). Call after every successful setup or renewal.
    ///
    /// Structurally invalid EERs — an empty path, one longer than the
    /// wire format can carry, more than 255 live versions, or a live
    /// version without exactly one σ per hop — are rejected outright (the reservation is removed if
    /// present), so the per-packet stamping path can rely on
    /// `1..=MAX_HOPS` hops, each with its σ, and never fail on path shape. Every version
    /// that stays live keeps its last issued `Ts`, so a re-install never
    /// repeats a timestamp. Each hop's σ is kept compact: install costs
    /// one key expansion and one AES block (the subkey) per hop and
    /// version, and the schedule is not stored.
    pub fn install(&mut self, eer: &OwnedEer, now: Instant) {
        let (res_id, path) = (eer.key.res_id, &eer.hop_fields);
        let live: Vec<&OwnedEerVersion> = eer.versions.iter().filter(|v| v.exp > now).collect();
        let one_sigma_per_hop = live.iter().all(|v| v.hop_auths.len() == path.len());
        if path.is_empty()
            || path.len() > MAX_HOPS
            || live.is_empty()
            || live.len() > MAX_VERSIONS
            || !one_sigma_per_hop
        {
            self.remove(res_id);
            return;
        }
        // The monitored rate is the maximum over live versions: using
        // several versions cannot multiply bandwidth (§4.2/§4.8).
        let rate = live.iter().map(|v| v.bw).max().expect("a live version");
        let old = self.index.get(res_id);
        let installed = old.map(|at| self.arena.record(at));
        let heads: Vec<Head> = live
            .iter()
            .map(|v| {
                let last_ts = installed
                    .and_then(|rec| heads(rec).find(|old| old.ver == v.ver))
                    .map_or(u64::MAX, |old| old.last_ts);
                let bw_class = BwClass::from_bandwidth_ceil(v.bw);
                Head { ver: v.ver, bw_class, exp: v.exp, last_ts }
            })
            .collect();
        let monitor = match installed {
            // A renewal carries the accumulated bucket tokens over —
            // settle elapsed time at the *old* rate, then clamp to the
            // new depth — so a mid-stream rate change never mints a
            // retroactive free burst (see `TokenBucket::reconfigure`).
            Some(rec) => {
                let mut monitor = bucket(rec);
                monitor.reconfigure(rate, self.cfg.burst, now);
                monitor
            }
            None => TokenBucket::with_burst_duration(rate, self.cfg.burst, now),
        };
        if let Some(q) = &mut self.qdisc {
            // Renewals reconfigure the node inside: tokens carry over.
            q.install(res_id, TrafficClass::ColibriData, rate, now);
        }
        // The old record is freed first: one of the same length is
        // rewritten in place.
        if let Some(at) = old {
            self.arena.release(at);
        }
        let (hops, cells) = (path.len(), record_cells(path.len(), live.len()));
        let at = self.arena.alloc(cells);
        self.index.put(res_id, at);
        let rec = &mut self.arena.tail_mut(at)[..cells];
        rec.fill(Cell::default());
        let (src_as, eer_info, first_egress) = (eer.key.src_as, eer.eer_info, path[0].egress);
        Header { res_id, hops, versions: live.len(), first_egress, src_as, eer_info }.write(rec);
        set_bucket(rec, &monitor);
        let hop_bytes =
            rec[HEADER_CELLS..].iter_mut().flat_map(|c| c.bytes_mut().chunks_exact_mut(4));
        for (b, hop) in hop_bytes.zip(path) {
            b[..2].copy_from_slice(&hop.ingress.0.to_ne_bytes());
            b[2..].copy_from_slice(&hop.egress.0.to_ne_bytes());
        }
        for (v, (head, version)) in heads.iter().zip(&live).enumerate() {
            let at = head_at(hops, v);
            rec[at] = head.encode();
            let mut sigmas = rec[at + 1..at + 1 + hops].iter_mut();
            for_each_by_width(&version.hop_auths, &CompactSigmas, |_, sigma| {
                *sigmas.next().expect("one cell per hop") = Cell(sigma);
            });
        }
    }

    /// Attack harness: overrides the deterministic-monitoring rate of one
    /// reservation, modeling a *faulty or malicious source AS* that does
    /// not police its hosts (the threat of §7.1 attack 3 / Table 2
    /// phase 3). Packets remain fully authentic — their `Bw` field and
    /// HVFs are unchanged — so only downstream probabilistic monitoring
    /// can catch the overuse.
    ///
    /// Like a renewal, the rate change *carries the accumulated tokens
    /// over* (settled at the old rate as of `now`) rather than resetting
    /// burst state: even a malicious override cannot retroactively mint
    /// tokens for the interval before it happened.
    pub fn override_monitor_rate(&mut self, res_id: ResId, rate: Bandwidth, now: Instant) {
        if let Some(at) = self.index.get(res_id) {
            let rec = self.arena.record_mut(at);
            let mut monitor = bucket(rec);
            monitor.reconfigure(rate, self.cfg.burst, now);
            set_bucket(rec, &monitor);
            if let Some(q) = &mut self.qdisc {
                if q.rate_of(res_id).is_some() {
                    q.install(res_id, TrafficClass::ColibriData, rate, now);
                }
            }
        }
    }

    /// Removes a reservation.
    pub fn remove(&mut self, res_id: ResId) {
        if let Some(at) = self.index.remove(res_id) {
            self.arena.release(at);
        }
        if let Some(q) = &mut self.qdisc {
            q.remove(res_id);
        }
    }

    /// Number of installed reservations (the `r` parameter of Figs. 5–6).
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// The state layout: bytes per reservation and the regions a packet
    /// touches outside the index (`repro fig5`'s layout rows).
    pub fn layout(&self) -> GatewayLayout {
        let (mut bytes, mut regions) = (size_of_val(&*self.index.entries), 0);
        for e in self.index.entries.iter().filter(|e| e.at != EMPTY) {
            let (first, cells) = (e.at as usize, self.arena.record(e.at).len());
            bytes += cells * size_of::<Cell>();
            regions = regions.max((first + cells - 1) / CHUNK_CELLS - first / CHUNK_CELLS + 1);
        }
        let bytes_per_reservation = bytes as f64 / self.len().max(1) as f64;
        GatewayLayout { bytes_per_reservation, record_regions_per_packet: regions }
    }

    /// The qdisc's accumulated counters, if the gateway is hierarchical.
    pub fn qos_stats(&self) -> Option<QdiscStats> {
        self.qdisc.as_ref().map(|q| q.stats())
    }

    /// Mutable access to the hierarchy (drive `enqueue`/`service` rounds,
    /// e.g. from the simulator or `repro qos`), if configured.
    pub fn qdisc_mut(&mut self) -> Option<&mut Qdisc> {
        self.qdisc.as_mut()
    }

    /// Shared access to the hierarchy, if configured.
    pub fn qdisc(&self) -> Option<&Qdisc> {
        self.qdisc.as_ref()
    }

    /// Whether no reservation is installed.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Processes one packet from end host `src_host` over reservation
    /// `res_id` (Fig. 1c ➊–➋): monitor, stamp `Ts`, compute all HVFs, and
    /// serialize the wire packet into `buf` (cleared and reused; it only
    /// grows when its capacity is insufficient). Returns the first-hop
    /// egress interface. A driver that recycles packet buffers makes no
    /// heap allocation per packet after warm-up, matching the paper's
    /// preallocated-mbuf DPDK pipeline.
    ///
    /// The packet is encoded straight into `buf` from the stored hop
    /// fields, and each hop validation field (Eq. 6 via [`eer_hvfs`]) is
    /// written at its offset. The HVFs are computed eight hops at a time
    /// from the version's compact σ keys: each hop's key expansion is
    /// interleaved with its one AES block, so the work of up to eight
    /// on-path ASes is in flight at once — `hops` key expansions and
    /// `hops` AES blocks per packet. Remainder hops run four wide when at
    /// least four remain, the rest one by one.
    pub fn process_into(
        &mut self,
        src_host: HostAddr,
        res_id: ResId,
        payload: &[u8],
        now: Instant,
        buf: &mut Vec<u8>,
    ) -> Result<colibri_base::InterfaceId, GatewayError> {
        // Wall clock feeds only the Volatile stamp-latency histogram,
        // sampled one packet in `CLOCK_SAMPLE`; it never influences
        // processing (determinism rules, DESIGN.md §11).
        let timed = self.telemetry.as_mut().is_some_and(GatewayTelemetry::time_packet);
        let wall_start = timed.then(std::time::Instant::now);
        let Some(at) = self.index.get(res_id) else {
            let err = GatewayError::UnknownReservation(res_id);
            return Err(refuse(&mut self.stats, &self.telemetry, err));
        };
        let rec = self.arena.record_mut(at);
        // One byte of every line, requested before any is used: the
        // record's misses overlap instead of following one another.
        std::hint::black_box(rec.iter().step_by(CELLS_PER_LINE).fold(0, |x, c| x ^ c.0[0][0]));
        let h = Header::read(rec);
        if h.eer_info.src_host != src_host {
            return Err(refuse(&mut self.stats, &self.telemetry, GatewayError::WrongHost));
        }
        let hops = h.hops;
        // Use the latest live version (§4.2).
        let latest = (0..h.versions)
            .rev()
            .map(|v| (head_at(hops, v), Head::decode(&rec[head_at(hops, v)])))
            .find(|(_, head)| head.exp > now);
        let Some((head_cell, head)) = latest else {
            return Err(refuse(&mut self.stats, &self.telemetry, GatewayError::Expired(res_id)));
        };
        let pkt_size = colibri_wire::header_len(hops, true) + payload.len();
        // High-precision timestamp: ns until expiry, strictly decreasing
        // per version so every packet is unique. Decided before policing,
        // so a packet refused here consumes no tokens.
        let mut ts = head.exp.as_nanos().saturating_sub(now.as_nanos());
        if ts >= head.last_ts {
            // Once `Ts = 0` is stamped the version has no timestamp left:
            // another packet would repeat a `(key, Ts)` pair, which the
            // routers' replay filter drops as a duplicate.
            let Some(next) = head.last_ts.checked_sub(1) else {
                let err = GatewayError::Expired(res_id);
                return Err(refuse(&mut self.stats, &self.telemetry, err));
            };
            ts = next;
        }
        // Deterministic monitoring (§4.8), sized by the full packet: the
        // hierarchical tree when configured (host → reservation → class →
        // uplink accounting), the record's flat bucket otherwise.
        let admitted = match &mut self.qdisc {
            Some(q) => match q.admit(res_id, src_host, pkt_size as u64, now) {
                Ok(()) => true,
                Err(AdmitError::UnknownReservation(_)) => {
                    // Tree and index are installed/removed together; a
                    // record without a node means teardown raced ahead.
                    let err = GatewayError::UnknownReservation(res_id);
                    return Err(refuse(&mut self.stats, &self.telemetry, err));
                }
                Err(AdmitError::RateLimited(_) | AdmitError::HostCapped(..)) => false,
            },
            None => {
                let mut monitor = bucket(rec);
                let admitted = monitor.try_consume(pkt_size as u64, now);
                set_fill(rec, &monitor);
                admitted
            }
        };
        if !admitted {
            self.stats.rate_limited += 1;
            if let Some(t) = &self.telemetry {
                t.rate_limited.inc();
            }
            return Err(GatewayError::RateLimited(res_id));
        }
        rec[head_cell].set_word(LAST_TS_AT, ts);

        let res_info =
            ResInfo { src_as: h.src_as, res_id, bw: head.bw_class, exp_t: head.exp, ver: head.ver };
        let path = hop_fields(rec, hops);
        encode_packet_into(&res_info, Some(&h.eer_info), false, &path[..hops], ts, payload, buf)
            .expect("installed path is valid");
        debug_assert_eq!(buf.len(), pkt_size);
        let sigmas = &rec[head_cell + 1..head_cell + 1 + hops];
        let mut at = hvf_offset(hops, true, 0);
        for_each_by_width(sigmas, &StampHvfs { ts, pkt_size }, |_, hvf| {
            buf[at..at + HVF_LEN].copy_from_slice(&hvf);
            at += HVF_LEN;
        });
        self.stats.forwarded += 1;
        if let Some(t) = &self.telemetry {
            t.forwarded.inc();
            if let Some(start) = wall_start {
                t.stamp_ns.observe(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(h.first_egress)
    }
}

/// Counts a packet refused for any reason but its rate and returns `err`.
fn refuse(
    stats: &mut GatewayStats,
    telemetry: &Option<GatewayTelemetry>,
    err: GatewayError,
) -> GatewayError {
    stats.rejected += 1;
    if let Some(t) = telemetry {
        t.rejected.inc();
    }
    err
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("reservations", &self.index.len)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colibri_base::{IsdAsId, ReservationKey};
    use colibri_ctrl::OwnedEerVersion;
    use colibri_wire::mac::eer_hvf;
    use colibri_wire::{PacketBuilder, PacketView, PacketViewMut};
    use proptest::prelude::*;

    const HOST: HostAddr = HostAddr(7);

    fn owned(res_id: u32, versions: Vec<(u8, Bandwidth, Instant)>) -> OwnedEer {
        OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(res_id)),
            eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
            path_ases: vec![IsdAsId::new(1, 10), IsdAsId::new(1, 1)],
            hop_fields: vec![HopField::new(0, 1), HopField::new(2, 0)],
            versions: versions
                .into_iter()
                .map(|(ver, bw, exp)| OwnedEerVersion {
                    ver,
                    bw,
                    exp,
                    hop_auths: vec![Key([ver; 16]), Key([ver + 100; 16])],
                })
                .collect(),
        }
    }

    fn gw() -> Gateway {
        Gateway::new(GatewayConfig { burst: Duration::from_secs(3600), ..Default::default() })
    }

    #[test]
    fn install_skips_expired_versions() {
        let mut g = gw();
        let now = Instant::from_secs(100);
        g.install(
            &owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(50))]),
            now,
        );
        assert!(g.is_empty(), "fully expired EER must not be installed");
        g.install(
            &owned(
                1,
                vec![
                    (0, Bandwidth::from_mbps(5), Instant::from_secs(50)),
                    (1, Bandwidth::from_mbps(5), Instant::from_secs(200)),
                ],
            ),
            now,
        );
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn reinstall_with_all_expired_removes_entry() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        let o = owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(50))]);
        g.install(&o, t0);
        assert_eq!(g.len(), 1);
        g.install(&o, Instant::from_secs(60));
        assert!(g.is_empty());
    }

    #[test]
    fn invalid_path_shape_rejected_at_install() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        let exp = Instant::from_secs(100);
        // Baseline: a valid install exists.
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]), t0);
        assert_eq!(g.len(), 1);
        // An empty path can never be stamped: the install is rejected and
        // the existing entry removed rather than left half-updated.
        let mut bad = owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]);
        bad.hop_fields.clear();
        g.install(&bad, t0);
        assert!(g.is_empty());
        // So is a version with a σ missing for one hop.
        let mut short = owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]);
        short.versions[0].hop_auths.pop();
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), exp)]), t0);
        g.install(&short, t0);
        assert!(g.is_empty());
        // A path longer than the wire format carries is equally rejected.
        let mut long = owned(2, vec![(0, Bandwidth::from_mbps(5), exp)]);
        long.hop_fields = vec![HopField::new(0, 1); colibri_wire::MAX_HOPS + 1];
        g.install(&long, t0);
        assert!(g.is_empty());
        // So is one with more live versions than a record's header counts.
        let many: Vec<_> = (0..=255).map(|v| version(v, 2, 0)).collect();
        g.install(&shaped(3, 2, &many[..255]), t0);
        assert_eq!(g.len(), 1);
        g.install(&shaped(3, 2, &many), t0);
        assert!(g.is_empty());
        assert_eq!(
            g.process_into(HOST, ResId(2), b"x", t0, &mut Vec::new()),
            Err(GatewayError::UnknownReservation(ResId(2)))
        );
    }

    #[test]
    fn renewals_carry_replay_state_over() {
        // Re-installing a live version (as every renewal does for the
        // versions it keeps) must not reset its last issued `Ts`: at one
        // fixed `now`, the next packet would otherwise repeat it.
        let mut g = gw();
        let now = Instant::from_secs(10);
        let o = owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(100))]);
        let mut buf = Vec::new();
        let mut prev = u64::MAX;
        for _ in 0..3 {
            g.install(&o, now);
            g.process_into(HOST, ResId(1), b"x", now, &mut buf).unwrap();
            let ts = PacketView::parse(&buf).unwrap().ts();
            assert!(ts < prev, "ts {ts} repeated across a re-install");
            prev = ts;
        }
    }

    #[test]
    fn latest_valid_version_used() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(
            &owned(
                1,
                vec![
                    (0, Bandwidth::from_mbps(5), Instant::from_secs(16)),
                    (1, Bandwidth::from_mbps(9), Instant::from_secs(32)),
                ],
            ),
            t0,
        );
        let mut buf = Vec::new();
        g.process_into(HOST, ResId(1), b"x", t0, &mut buf).unwrap();
        assert_eq!(PacketView::parse(&buf).unwrap().res_info().ver, 1);
        // After version 1 expires, nothing remains (version 0 is older).
        let late = Instant::from_secs(40);
        assert_eq!(
            g.process_into(HOST, ResId(1), b"x", late, &mut buf),
            Err(GatewayError::Expired(ResId(1)))
        );
    }

    #[test]
    fn ts_unique_and_decreasing_within_version() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let mut buf = Vec::new();
        let mut prev = u64::MAX;
        for _ in 0..50 {
            // Same `now` for every packet: Ts must still be unique.
            g.process_into(HOST, ResId(1), b"", t0, &mut buf).unwrap();
            let ts = PacketView::parse(&buf).unwrap().ts();
            assert!(ts < prev, "ts {ts} not strictly decreasing");
            prev = ts;
        }
    }

    #[test]
    fn exhausted_timestamps_refused_before_policing() {
        // A 1,500-byte bucket with no refill within one instant holds three
        // 400-byte-payload packets. In the version's last nanosecond only
        // two unique timestamps remain (1 and 0): further packets are
        // refused as expired without touching the bucket, so the renewed
        // version can still send the third packet's worth.
        let mut g =
            Gateway::new(GatewayConfig { burst: Duration::from_millis(1), ..Default::default() });
        let bw = Bandwidth::from_kbps(8);
        let exp = Instant::from_secs(16);
        let t = Instant::from_nanos(exp.as_nanos() - 1);
        g.install(&owned(1, vec![(0, bw, exp)]), Instant::from_secs(0));
        let payload = [0u8; 400];
        let mut buf = Vec::new();
        for _ in 0..2 {
            g.process_into(HOST, ResId(1), &payload, t, &mut buf).unwrap();
        }
        for _ in 0..5 {
            assert_eq!(
                g.process_into(HOST, ResId(1), &payload, t, &mut buf),
                Err(GatewayError::Expired(ResId(1)))
            );
        }
        assert_eq!((g.stats.rejected, g.stats.rate_limited), (5, 0));
        g.install(&owned(1, vec![(0, bw, exp), (1, bw, Instant::from_secs(32))]), t);
        g.process_into(HOST, ResId(1), &payload, t, &mut buf).unwrap();
        assert_eq!(PacketView::parse(&buf).unwrap().res_info().ver, 1);
        assert_eq!(
            g.process_into(HOST, ResId(1), &payload, t, &mut buf),
            Err(GatewayError::RateLimited(ResId(1)))
        );
    }

    #[test]
    fn monitor_counts_header_bytes() {
        // Reservation of 8 kbps with a 1500-byte burst: a single
        // zero-payload packet (64-byte header) passes, but its header
        // bytes are charged — after ~23 packets the bucket is empty even
        // though no payload was ever sent (defense against header-only
        // flooding, §4.8).
        let mut g = Gateway::new(GatewayConfig { burst: Duration::from_millis(1), ..Default::default() });
        let t0 = Instant::from_secs(0);
        let mut o = owned(1, vec![(0, Bandwidth::from_kbps(8), Instant::from_secs(16))]);
        o.versions[0].bw = Bandwidth::from_kbps(8);
        g.install(&o, t0);
        let mut buf = Vec::new();
        let sent = (0..100).filter(|_| g.process_into(HOST, ResId(1), b"", t0, &mut buf).is_ok());
        let sent = sent.count();
        assert!(sent < 30, "header bytes not charged: {sent} empty packets passed");
        assert!(g.stats.rate_limited > 0);
    }

    #[test]
    fn first_egress_reported() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let egress = g.process_into(HOST, ResId(1), b"x", t0, &mut Vec::new());
        assert_eq!(egress, Ok(colibri_base::InterfaceId(1)));
    }

    /// ResIds equal modulo the index size share a home entry; `k << 20`
    /// does for every index below 2²⁰ entries.
    fn probe_id(k: u32) -> u32 {
        if k < 12 {
            k << 20
        } else {
            k
        }
    }

    /// Reservation `id` over `hops` ASes with `versions`.
    fn shaped(id: u32, hops: usize, versions: &[OwnedEerVersion]) -> OwnedEer {
        OwnedEer {
            key: ReservationKey::new(IsdAsId::new(1, 10), ResId(id)),
            eer_info: EerInfo { src_host: HOST, dst_host: HostAddr(8) },
            path_ases: (0..hops as u32).map(|i| IsdAsId::new(1, 10 + i)).collect(),
            hop_fields: (0..hops as u16).map(|i| HopField::new(i, i + 1)).collect(),
            versions: versions.to_vec(),
        }
    }

    /// Version `ver` over `hops` ASes, each σ drawn from `seed`.
    fn version(ver: u8, hops: usize, seed: u64) -> OwnedEerVersion {
        let hop_auths = (0..hops as u64)
            .map(|i| Key(std::array::from_fn(|b| (seed.rotate_left(8 * b as u32) ^ i) as u8)))
            .collect();
        let exp = Instant::from_secs(1_000 + u64::from(ver));
        OwnedEerVersion { ver, bw: Bandwidth::from_gbps(1), exp, hop_auths }
    }

    /// The packet built the slow way: `PacketBuilder`, then Eq. 6 per hop
    /// from the raw σ.
    fn reference(eer: &OwnedEer, ts: u64, payload: &[u8]) -> Vec<u8> {
        let v = eer.versions.last().expect("a version");
        let bw = BwClass::from_bandwidth_ceil(v.bw);
        let ri = ResInfo {
            src_as: eer.key.src_as,
            res_id: eer.key.res_id,
            bw,
            exp_t: v.exp,
            ver: v.ver,
        };
        let mut pkt = PacketBuilder::eer(ri, eer.eer_info)
            .path(eer.hop_fields.clone())
            .ts(ts)
            .build(payload)
            .unwrap();
        let size = pkt.len();
        let mut view = PacketViewMut::parse(&mut pkt).unwrap();
        for (i, sigma) in v.hop_auths.iter().enumerate() {
            view.set_hvf(i, eer_hvf(sigma, ts, size));
        }
        pkt
    }

    proptest! {
        /// Any sequence of installs and removals of reservations of mixed
        /// hop and version counts, with long probe runs of colliding
        /// ResIds, leaves exactly the installed reservations reachable,
        /// each at a record of its own shape.
        #[test]
        fn table_matches_a_set_model(
            ops in prop::collection::vec((any::<bool>(), 0u32..24, 1usize..=32, 1u8..=3), 0..200),
        ) {
            let mut g = gw();
            let t0 = Instant::from_secs(0);
            let mut model = std::collections::BTreeMap::new();
            for (install, k, hops, versions) in ops {
                let id = probe_id(k);
                if install {
                    let versions: Vec<_> = (0..versions).map(|v| version(v, hops, k.into())).collect();
                    g.install(&shaped(id, hops, &versions), t0);
                    model.insert(id, (hops, versions.len()));
                } else {
                    g.remove(ResId(id));
                    model.remove(&id);
                }
                prop_assert_eq!(g.len(), model.len());
                for k in 0..24 {
                    let id = probe_id(k);
                    let found = g.index.get(ResId(id)).map(|at| {
                        let h = Header::read(g.arena.record(at));
                        (h.res_id, h.hops, h.versions)
                    });
                    let expect = model.get(&id).map(|&(hops, versions)| (ResId(id), hops, versions));
                    prop_assert_eq!(found, expect, "ResId {}", id);
                }
            }
        }
    }

    /// Installs, renewals and removals over 1–32 hops and 1–3 live
    /// versions reuse freed records without growing the arena past its
    /// peak live cells plus one chunk, and after every reuse each live
    /// reservation stamps exactly the reference packet — a stale σ or
    /// head left in a reused record would show in the bytes or the `Ts`.
    #[test]
    fn arena_churn_reuses_records_without_stale_state() {
        let mut g = gw();
        let now = Instant::from_secs(10);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // Per live ResId: its EER and the last `Ts` of each version.
        let mut live = std::collections::BTreeMap::<u32, (OwnedEer, Vec<(u8, u64)>)>::new();
        let (mut freed, mut peak, mut reuses) = (std::collections::BTreeSet::new(), 0, 0);
        let mut buf = Vec::new();
        for _ in 0..10_000 {
            let (id, r) = (probe_id((next() % 8) as u32), next());
            if let Some(at) = g.index.get(ResId(id)) {
                freed.insert(at);
            }
            match live.remove(&id) {
                Some(_) if r % 4 == 0 => g.remove(ResId(id)),
                old => {
                    // A renewal keeps up to two newer versions (and their
                    // last `Ts`) and adds one; a fresh install picks a
                    // path length and one to three versions.
                    let (hops, mut versions, mut last) = match old {
                        Some((eer, last)) => (eer.hop_fields.len(), eer.versions, last),
                        None => (1 + (r >> 8) as usize % MAX_HOPS, Vec::new(), Vec::new()),
                    };
                    let ver = versions.last().map_or(0, |v| v.ver.wrapping_add(1));
                    let keep = (r >> 16) as usize % 3;
                    versions.drain(..versions.len().saturating_sub(keep));
                    last.retain(|(ver, _)| versions.iter().any(|v| v.ver == *ver));
                    let added = (1 + (r >> 24) as usize % 3).saturating_sub(versions.len()).max(1);
                    for v in 0..added as u8 {
                        versions.push(version(ver.wrapping_add(v), hops, next()));
                    }
                    let eer = shaped(id, hops, &versions);
                    g.install(&eer, now);
                    live.insert(id, (eer, last));
                    let at = g.index.get(ResId(id)).expect("installed");
                    if freed.remove(&at) {
                        reuses += 1;
                        for (&id, (eer, last)) in &mut live {
                            let payload = &[id as u8; 40][..(next() % 40) as usize];
                            g.process_into(HOST, ResId(id), payload, now, &mut buf).unwrap();
                            let v = eer.versions.last().expect("a version");
                            let prev =
                                last.iter().find(|(ver, _)| *ver == v.ver).map(|&(_, ts)| ts);
                            let ts = (v.exp.as_nanos() - now.as_nanos())
                                .min(prev.map_or(u64::MAX, |t| t - 1));
                            assert_eq!(buf, reference(eer, ts, payload), "ResId {id}");
                            last.retain(|(ver, _)| *ver != v.ver);
                            last.push((v.ver, ts));
                        }
                    }
                }
            }
            let cells =
                live.values().map(|(e, _)| record_cells(e.hop_fields.len(), e.versions.len()));
            peak = peak.max(cells.sum::<usize>());
            assert!(
                g.arena.top <= peak + CHUNK_CELLS,
                "{} cells for a peak of {peak}",
                g.arena.top
            );
        }
        assert!(reuses > 1_000, "only {reuses} reuses");
    }

    /// A 4-hop reservation with one version costs its 256 B record plus
    /// 16 B of the index at most half full (≤ 288 B), and a packet
    /// touches one region outside the index: its line-aligned record.
    #[test]
    fn layout_is_one_aligned_record_per_reservation() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        for id in 0..1024 {
            g.install(&shaped(id, 4, &[version(0, 4, id.into())]), t0);
        }
        let expect =
            GatewayLayout { bytes_per_reservation: 256.0 + 16.0, record_regions_per_packet: 1 };
        assert_eq!(g.layout(), expect);
        assert!(g.layout().bytes_per_reservation <= 288.0);
        for id in 0..1024 {
            let at = g.index.get(ResId(id)).expect("installed");
            assert_eq!(g.arena.record(at).as_ptr() as usize % 64, 0, "ResId {id} off its line");
        }
    }

    #[test]
    fn stats_track_outcomes() {
        let mut g = gw();
        let t0 = Instant::from_secs(0);
        g.install(&owned(1, vec![(0, Bandwidth::from_mbps(5), Instant::from_secs(16))]), t0);
        let mut buf = Vec::new();
        g.process_into(HOST, ResId(1), b"x", t0, &mut buf).unwrap();
        let _ = g.process_into(HostAddr(99), ResId(1), b"x", t0, &mut buf);
        let _ = g.process_into(HOST, ResId(2), b"x", t0, &mut buf);
        assert_eq!(g.stats.forwarded, 1);
        assert_eq!(g.stats.rejected, 2);
    }
}
