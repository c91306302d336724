//! Seeded inputs: the LUBM configuration and the request streams.

use crate::templates::{Bgp, PointTemplate, POINT_TEMPLATES};
use turbohom_datasets::lubm::LubmConfig;

/// Universities in the benchmark store (LUBM scale factor).
pub const SCALE: usize = 400;

/// Exponent of the Zipf skew over each point template's constants.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// SplitMix64: small, seedable and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The store every workload serves: LUBM at [`SCALE`] universities with the
/// generator's own seed, the store `turbohom-server --lubm 400` serves.
/// The benchmark seed drives the request streams, not the data: between
/// generator seeds Q9 alone moved by 20% (see README.md), which would bury
/// any change under the choice of seed.
pub fn lubm_config() -> LubmConfig {
    LubmConfig::scale(SCALE)
}

/// A seeded popularity order over one template's constants, drawn with a
/// Zipf skew: rank `r` (from 0) has weight `1 / (r + 1)^s`.
struct ZipfChoice {
    /// The value index at each rank.
    order: Vec<usize>,
    cdf: Vec<f64>,
}

impl ZipfChoice {
    fn new(n: usize, rng: &mut Rng) -> ZipfChoice {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
                total
            })
            .collect::<Vec<_>>();
        let cdf = cdf.iter().map(|c| c / total).collect();
        ZipfChoice { order, cdf }
    }

    /// The index of the drawn value.
    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.order.len() - 1);
        self.order[rank]
    }
}

/// One point request: the template and its filled-in query.
pub struct PointRequest {
    pub template: PointTemplate,
    /// Index of the template in [`POINT_TEMPLATES`] and of the constant in
    /// its parameter space, which together key the expected answer.
    pub template_at: usize,
    pub param: usize,
    pub bgp: Bgp,
    pub text: String,
}

/// Every constant each point template can take, in [`POINT_TEMPLATES`]
/// order.
pub fn point_spaces(cfg: &LubmConfig) -> Vec<Vec<String>> {
    POINT_TEMPLATES
        .iter()
        .map(|t| t.space.values(cfg))
        .collect()
}

/// The seeded stream of point requests: rounds of one request per
/// constant-solution template, each constant Zipf-drawn from the template's
/// whole parameter space.
pub struct PointStream {
    spaces: Vec<Vec<String>>,
    choices: Vec<ZipfChoice>,
    rng: Rng,
}

impl PointStream {
    pub fn new(seed: u64, cfg: &LubmConfig) -> PointStream {
        let mut rng = Rng::new(seed);
        let spaces = point_spaces(cfg);
        let choices = spaces
            .iter()
            .map(|values| ZipfChoice::new(values.len(), &mut rng))
            .collect();
        PointStream {
            spaces,
            choices,
            rng,
        }
    }

    /// Number of distinct point queries the stream can send.
    pub fn space_sizes(&self) -> Vec<(&'static str, usize)> {
        POINT_TEMPLATES
            .iter()
            .zip(&self.spaces)
            .map(|(t, values)| (t.id, values.len()))
            .collect()
    }

    pub fn next_round(&mut self) -> Vec<PointRequest> {
        let rng = &mut self.rng;
        POINT_TEMPLATES
            .iter()
            .zip(self.spaces.iter().zip(&self.choices))
            .enumerate()
            .map(|(template_at, (t, (values, choice)))| {
                let param = choice.draw(rng);
                let bgp = t.bgp(&values[param]);
                PointRequest {
                    template: *t,
                    template_at,
                    param,
                    text: bgp.to_sparql(),
                    bgp,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let cfg = LubmConfig::scale(10);
        let texts = |seed| {
            let mut s = PointStream::new(seed, &cfg);
            (0..20)
                .flat_map(|_| s.next_round())
                .map(|r| r.text)
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(7), texts(7));
        assert_ne!(texts(7), texts(8));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut rng = Rng::new(1);
        let choice = ZipfChoice::new(1000, &mut rng);
        let top = choice.order[0];
        let hits = (0..10_000).filter(|_| choice.draw(&mut rng) == top).count();
        // Weight of rank 0 is 1 / H(1000) ≈ 0.134.
        assert!((1_000..1_700).contains(&hits), "{hits}");
    }
}
