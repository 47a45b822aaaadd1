//! The [`counter_block!`](crate::counter_block) table macro.

/// Declares a block of atomic counters once, as a table of rows
///
/// ```text
/// field: AtomicU64 | [AtomicU64; N], sum | max
///     [, counter | gauge "family" "HELP"] [=> vis inc_fn];
/// ```
///
/// and generates from it: the block (one atomic cell per row); the
/// snapshot struct (one public `u64` / `[u64; N]` per row, carrying the
/// row's doc comment); a module-private `load` copying every cell as
/// stored (relaxed), which a block with a packed cell wraps in its own
/// `snapshot`; `pub fn merge_from` folding each field by its row's `sum`
/// or `max`, element-wise for arrays; a module-private
/// `collect_into(label, out)` pushing one [`Metric`](crate::Metric) per
/// row that names a family, passed through `label`; and an increment
/// method per row that names one. Record sites that touch several cells
/// and families derived from several fields stay hand-written.
///
/// ```
/// cde_telemetry::counter_block! {
///     #[derive(Debug, Default)]
///     pub struct Block;
///     #[derive(Debug, Clone)]
///     pub struct Snapshot;
///     /// Requests served.
///     served: AtomicU64, sum, counter "served_total" "Requests served" => pub record_served;
///     /// Slowest request, in microseconds.
///     slowest_us: AtomicU64, max;
/// }
/// ```
#[macro_export]
macro_rules! counter_block {
    (@cell AtomicU64) => { ::std::sync::atomic::AtomicU64 };
    (@cell [AtomicU64; $n:expr]) => { [::std::sync::atomic::AtomicU64; $n] };
    (@value AtomicU64) => { u64 };
    (@value [AtomicU64; $n:expr]) => { [u64; $n] };
    (@load AtomicU64, $c:expr) => { $c.load(::std::sync::atomic::Ordering::Relaxed) };
    (@load [AtomicU64; $n:expr], $c:expr) => {
        ::std::array::from_fn(|i| $c[i].load(::std::sync::atomic::Ordering::Relaxed))
    };
    (@fold AtomicU64, sum, $dst:expr, $src:expr) => { $dst += $src };
    (@fold AtomicU64, max, $dst:expr, $src:expr) => { $dst = $dst.max($src) };
    (@fold [AtomicU64; $n:expr], $fold:ident, $dst:expr, $src:expr) => {
        for (d, s) in $dst.iter_mut().zip($src) {
            $crate::counter_block!(@fold AtomicU64, $fold, *d, s)
        }
    };
    (@metric counter, $v:expr) => { $crate::MetricValue::Counter($v) };
    (@metric gauge, $v:expr) => { $crate::MetricValue::Gauge($v as f64) };
    (
        $(#[$block_meta:meta])* $block_vis:vis struct $block:ident;
        $(#[$snap_meta:meta])* $snap_vis:vis struct $snap:ident;
        $(
            $(#[$row_meta:meta])*
            $field:ident : $ty:tt, $fold:ident
                $(, $kind:ident $family:literal $help:literal)? $(=> $inc_vis:vis $inc:ident)?;
        )*
    ) => {
        $(#[$block_meta])*
        $block_vis struct $block {
            $( $(#[$row_meta])* $field: $crate::counter_block!(@cell $ty), )*
        }

        $(#[$snap_meta])*
        $snap_vis struct $snap {
            $( $(#[$row_meta])* pub $field: $crate::counter_block!(@value $ty), )*
        }

        #[allow(dead_code)]
        impl $block {
            /// Relaxed point-in-time copy of every cell, as stored.
            fn load(&self) -> $snap {
                $snap { $( $field: $crate::counter_block!(@load $ty, self.$field), )* }
            }
            $($(
                #[doc = concat!("Adds one to [`", stringify!($snap), "::", stringify!($field),
                                "`].")]
                $inc_vis fn $inc(&self) {
                    self.$field.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                }
            )?)*
        }

        #[allow(dead_code)]
        impl $snap {
            /// Folds `other` into `self`, each field by its declared fold:
            /// `sum` adds, `max` keeps the larger value.
            pub fn merge_from(&mut self, other: &$snap) {
                $( $crate::counter_block!(@fold $ty, $fold, self.$field, other.$field); )*
            }

            /// Pushes one metric per exported field, each through `label`.
            fn collect_into(
                &self,
                label: impl Fn($crate::Metric) -> $crate::Metric,
                out: &mut ::std::vec::Vec<$crate::Metric>,
            ) {
                $($(out.push(label($crate::Metric {
                    name: $family,
                    help: $help,
                    labels: ::std::vec::Vec::new(),
                    value: $crate::counter_block!(@metric $kind, self.$field),
                }));)?)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::Metric;

    crate::counter_block! {
        #[derive(Debug, Default)]
        struct Block;
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Snap;
        /// Summed scalar, exported as a counter, with an increment.
        hits: AtomicU64, sum, counter "t_hits_total" "Hits" => record_hit;
        /// Max-folded scalar, exported as a gauge.
        peak: AtomicU64, max, gauge "t_peak" "Peak";
        /// Summed array, not exported.
        buckets: [AtomicU64; 3], sum;
        /// Max-folded array, not exported.
        highs: [AtomicU64; 2], max;
        /// Summed scalar, not exported.
        quiet: AtomicU64, sum;
    }

    fn snap(hits: u64, peak: u64, buckets: [u64; 3], highs: [u64; 2], quiet: u64) -> Snap {
        Snap {
            hits,
            peak,
            buckets,
            highs,
            quiet,
        }
    }

    #[test]
    fn increments_add_one_and_load_copies_every_cell() {
        let block = Block::default();
        block.record_hit();
        block.record_hit();
        block.peak.store(9, std::sync::atomic::Ordering::Relaxed);
        block.buckets[2].store(4, std::sync::atomic::Ordering::Relaxed);
        block.highs[0].store(5, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(block.load(), snap(2, 9, [0, 0, 4], [5, 0], 0));
    }

    #[test]
    fn merge_folds_scalars_and_arrays_by_row() {
        let mut a = snap(3, 7, [1, 2, 3], [4, 1], 10);
        a.merge_from(&snap(5, 2, [10, 0, 1], [2, 8], 1));
        assert_eq!(a, snap(8, 7, [11, 2, 4], [4, 8], 11));
    }

    #[test]
    fn collect_exports_only_family_rows_through_the_label() {
        let shard = |m: Metric| m.with_label("shard", "2");
        let mut out = Vec::new();
        snap(4, 6, [1, 1, 1], [1, 1], 99).collect_into(shard, &mut out);
        assert_eq!(
            out,
            vec![
                shard(Metric::counter("t_hits_total", "Hits", 4)),
                shard(Metric::gauge("t_peak", "Peak", 6.0)),
            ]
        );
    }
}
