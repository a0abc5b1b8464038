//! Micro-benchmarks of the L1.5 data/control paths: masked read/write
//! lookups, fills, SDU reconfiguration and `gv_set` latency.
//!
//! `--quick` runs each routine once (CI smoke).

use l15_cache::l15::{L15Cache, L15Config, PendingReq, RequestBuffer};
use l15_cache::WayMask;
use l15_testkit::bench::{self, black_box, Bench};
use l15_testkit::cli;

fn fresh_cache() -> L15Cache {
    let mut c = L15Cache::new(L15Config::default()).expect("paper config is valid");
    c.demand(0, 8).expect("within zeta");
    c.demand(1, 8).expect("within zeta");
    c.settle();
    c
}

fn main() {
    let args = cli::parse_or_exit("bench_cache", bench::FLAGS, &[]);
    let bench = Bench::from_cli("l15", &args);

    {
        let mut cache = fresh_cache();
        cache.fill(0, 0x1000, 0x1000, &[7u8; 64], false).expect("core 0 owns ways");
        let mut buf = [0u8; 8];
        bench.run("read_hit", || {
            let out = cache.read(0, black_box(0x1000), 0x1000, &mut buf).expect("core in range");
            black_box(out.hit);
        });
    }

    {
        let mut cache = fresh_cache();
        let mut buf = [0u8; 8];
        bench.run("read_miss", || {
            let out = cache.read(0, black_box(0x9000), 0x9000, &mut buf).expect("core in range");
            black_box(out.hit);
        });
    }

    {
        let mut cache = fresh_cache();
        let line = vec![3u8; 64];
        let mut addr = 0u64;
        bench.run("fill", || {
            addr = addr.wrapping_add(64);
            black_box(cache.fill(0, addr, addr, black_box(&line), false).expect("core in range"));
        });
    }

    {
        let mut cache = fresh_cache();
        let mask = cache.supply(0).expect("core in range");
        bench.run("gv_set", || {
            cache.gv_set(0, black_box(mask)).expect("owned");
        });
    }

    bench.run("sdu_reconfigure_8_ways", || {
        let mut cache = L15Cache::new(L15Config::default()).expect("valid");
        cache.demand(0, 8).expect("within zeta");
        let (events, _, cycles) = cache.settle();
        black_box((events.len(), cycles));
    });

    {
        // The Sec. 3.3 in-flight buffer: sustained push + dual-port issue.
        let mut buf = RequestBuffer::new(16, 2);
        let mut i = 0u64;
        bench.run("reqbuf_push_issue", || {
            i += 1;
            buf.push(PendingReq {
                core: (i % 4) as usize,
                vaddr: i * 64,
                paddr: i * 64,
                is_store: i.is_multiple_of(3),
                priority: (i % 4) as u8,
                age: 0,
            });
            black_box(buf.issue().len());
        });
    }

    {
        // Scaling probe: 16 independent caches filled and probed on the
        // deterministic pool (one item per cache, index-ordered results).
        bench.run("par_fill_read_16x", || {
            let hits = l15_bench::par_sweep(16, |i| {
                let mut cache = fresh_cache();
                let line = vec![i as u8; 64];
                let mut hits = 0u64;
                for k in 0..64u64 {
                    let addr = k * 64;
                    cache.fill(0, addr, addr, &line, false).expect("core 0 owns ways");
                    let mut buf = [0u8; 8];
                    hits += cache.read(0, addr, addr, &mut buf).expect("core in range").hit as u64;
                }
                hits
            });
            black_box(hits.iter().sum::<u64>());
        });
    }

    {
        let a = WayMask::from(0xAAAAu64);
        let m = WayMask::from(0x0F0Fu64);
        bench.run("waymask_ops", || {
            let u = black_box(a).union(m);
            let i = u.intersect(a);
            black_box(i.count());
        });
    }
}
