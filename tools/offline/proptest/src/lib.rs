//! Offline stand-in for `proptest` 1.x, covering exactly the calls the
//! `mphpc` workspace makes: strategies for ranges, tuples, `Vec<S>`,
//! `any::<T>()`, `collection::vec`, `prop_map` / `prop_flat_map`,
//! `prop::bool::ANY`, and the `proptest!` / `prop_compose!` /
//! `prop_assert*!` / `prop_assume!` macros.
//!
//! Cases are sampled from a generator seeded by the test's name, so a
//! failure repeats on the next run; there is **no shrinking** — the
//! failing case is reported as drawn. The root manifest's
//! `[patch.crates-io]` table resolves `proptest` to this crate, so the
//! suites run in a container without crates.io.

pub mod test_runner {
    /// splitmix64: small, seedable, and good enough to sample test inputs.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> TestRng {
            TestRng(seed)
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

        /// Uniform in `[0, n)`; `n` must be positive.
        pub fn below(&mut self, n: u64) -> u64 {
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// Why a case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` did not hold: draw another case.
        Reject(String),
        /// `prop_assert*!` did not hold.
        Fail(String),
    }

    /// `ProptestConfig`: only the case count is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Run `case` until `config.cases` draws passed; panic on the first
    /// that fails, or when `prop_assume!` rejects far more than it admits.
    pub fn run(
        config: &Config,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        // FNV-1a of the test name: every test draws its own stream.
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let mut rng = TestRng::new(seed);
        let (mut passed, mut rejected) = (0u32, 0u32);
        while passed < config.cases {
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejected += 1;
                    assert!(
                        rejected <= 16 * config.cases.max(16),
                        "{name}: {rejected} cases rejected ({why}) for {passed} passed"
                    );
                }
                Err(TestCaseError::Fail(why)) => {
                    panic!(
                        "{name}: case {} failed (seed {seed:#x}, no shrinking): {why}",
                        passed + rejected
                    )
                }
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for drawing values of one type.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map(self, f)
        }

        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap(self, f)
        }
    }

    pub struct Map<S, F>(S, F);

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.1)(self.0.sample(rng))
        }
    }

    pub struct FlatMap<S, F>(S, F);

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn sample(&self, rng: &mut TestRng) -> T::Value {
            (self.1)(self.0.sample(rng)).sample(rng)
        }
    }

    /// A strategy from a sampling closure (what `prop_compose!` expands to).
    pub struct FromFn<F>(pub F);

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FromFn<F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            // Rounding can land on `end`; the range is half-open.
            let v = self.start + (self.end - self.start) * rng.unit();
            if v < self.end {
                v
            } else {
                self.start
            }
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u64;
                    // `span + 1` overflows only for the whole 64-bit domain.
                    let offset = match span.checked_add(1) {
                        Some(n) => rng.below(n),
                        None => rng.next_u64(),
                    };
                    (*self.start() as i128 + offset as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u32, u64, usize);

    /// One value drawn from every strategy, in order.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.sample(rng)).collect()
        }
    }

    macro_rules! tuples {
        ($(($($s:ident . $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    tuples! {
        (A.0, B.1)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types `any::<T>()` can draw: the whole domain, uniformly.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_ints!(u32, u64, usize);

    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod bool {
    /// `prop::bool::ANY`.
    pub const ANY: crate::arbitrary::Any<bool> = crate::arbitrary::Any(std::marker::PhantomData);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// How many elements `vec` draws: exactly `n`, or uniformly in a range.
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange(r)
        }
    }

    pub struct VecStrategy<S>(S, SizeRange);

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.1 .0.sample(rng);
            (0..n).map(|_| self.0.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element, size.into())
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_compose, proptest};

    /// `prop::bool::ANY`, `prop::collection::vec`.
    pub mod prop {
        pub use crate::{bool, collection};
    }
}

/// `proptest! { #![proptest_config(cfg)] #[test] fn name(pat in strategy, ...) { body } ... }`
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(&$config, stringify!($name), |rng| {
                // One draw per binding, in order: no tuple-arity limit.
                $(let $pat = $crate::strategy::Strategy::sample(&$strategy, rng);)+
                $body
                Ok(())
            });
        }
    )*};
}

/// `prop_compose! { fn name(args)(pat in strategy, ...) -> T { body } }`
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $arg_ty:ty),* $(,)?)
            ($($pat:pat in $strategy:expr),+ $(,)?) -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $arg_ty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::FromFn(move |rng: &mut $crate::test_runner::TestRng| -> $ret {
                $(let $pat = $crate::strategy::Strategy::sample(&$strategy, rng);)+
                $body
            })
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if *left != *right {
                    return Err($crate::test_runner::TestCaseError::Fail(format!(
                        "{}: left {:?}, right {:?}",
                        format!($($fmt)+),
                        left,
                        right
                    )));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}
