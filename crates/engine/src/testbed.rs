//! One-call hermetic live deployments.
//!
//! [`LiveTestbed`] wires the full live chain together on loopback:
//!
//! ```text
//! ReactorTransport ──UDP──▶ LoopbackResolver(platform) ──UDP──▶ WireAuthority
//!        ▲                          │ observations                   │
//!        └──────────────────────────┴────────── zone sync ◀──────────┘
//! ```
//!
//! The resolver and the authority are one thread each, blocked in its
//! own `cde_sysio::Poller` wait until a datagram lands, as the reactor's
//! shard loops are. The authority serves every virtual nameserver's
//! socket from its one thread and holds delayed answers in a queue
//! rather than sleeping on them.
//!
//! Everything binds `127.0.0.1:0`, so tests and examples run anywhere
//! with no fixtures, no privileges and no port collisions.

use crate::authority::WireAuthority;
use crate::clock::EngineClock;
use crate::reactor::{ReactorConfig, ReactorTransport};
use crate::resolver::{LoopbackResolver, ResolverConfig};
use cde_platform::{NameserverNet, ResolutionPlatform};
use std::io;
use std::time::Duration;

/// A launched authority + resolver pair over one platform and world.
#[derive(Debug)]
pub struct LiveTestbed {
    authority: WireAuthority,
    resolver: LoopbackResolver,
    initial_net: NameserverNet,
}

impl LiveTestbed {
    /// Launches the wire authority for `net` and a loopback resolver
    /// serving `platform`, with upstream replay wired between them.
    pub fn launch(
        platform: ResolutionPlatform,
        net: NameserverNet,
        cfg: ResolverConfig,
    ) -> io::Result<LiveTestbed> {
        LiveTestbed::launch_with_upstream_delay(platform, net, cfg, Duration::ZERO)
    }

    /// Like [`LiveTestbed::launch`], but the authority holds every answer
    /// back by `upstream_delay` before it goes on the wire. Cache *hits*
    /// never leave the resolver, so only misses pay the delay — the
    /// wall-clock contrast the §IV-B3 timing side channel measures.
    pub fn launch_with_upstream_delay(
        platform: ResolutionPlatform,
        net: NameserverNet,
        cfg: ResolverConfig,
        upstream_delay: Duration,
    ) -> io::Result<LiveTestbed> {
        let clock = EngineClock::start();
        let authority = WireAuthority::launch_with_delay(&net, clock, upstream_delay)?;
        let resolver =
            LoopbackResolver::launch(platform, net.clone(), Some(&authority), cfg, clock)?;
        Ok(LiveTestbed {
            authority,
            resolver,
            initial_net: net,
        })
    }

    /// A live transport over this testbed: probes multiplex through the
    /// event-driven [`Reactor`](crate::reactor::Reactor), and the
    /// transport owns a canonical copy of the authoritative world.
    ///
    /// The resolver's observation stream is drained by whichever
    /// transport reads it first — create one transport per testbed.
    pub fn reactor_transport(&self, config: ReactorConfig) -> io::Result<ReactorTransport> {
        ReactorTransport::connect(
            &self.resolver,
            Some(&self.authority),
            self.initial_net.clone(),
            config,
        )
    }

    /// The wire authority (source logs, served-query counter).
    pub fn authority(&self) -> &WireAuthority {
        &self.authority
    }

    /// The loopback resolver front-end.
    pub fn resolver(&self) -> &LoopbackResolver {
        &self.resolver
    }
}
