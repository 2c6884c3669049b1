//! # iolap-rtree
//!
//! Empty. This crate held the R-tree over connected-component bounding
//! boxes that Section 9's maintenance searched; maintenance now answers
//! those lookups exactly from in-memory maps and reads no page for them
//! (DESIGN §2.23). The crate remains only because `iolap-core` and
//! `iolap-serve` still name it in their manifests, which frozen lockfiles
//! record; it goes with the next lockfile change (ROADMAP item 1(f)).
