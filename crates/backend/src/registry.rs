//! The process-wide backend registry.
//!
//! Maps stable names to [`Registration`]s — a backend's metadata plus one
//! trait-object slot per supported dtype. The two built-ins (`engine`,
//! `reference`) are always present; additional backends (a
//! GPU-style stub, an instrumented wrapper) can be added at runtime with
//! [`register`], which is what makes the serve harness's `--backends`
//! flag an open set rather than an enum.

use std::sync::{OnceLock, RwLock};

use crate::{Backend, BackendId, BackendScalar, Dtype};
use crate::{EngineBackend, ReferenceBackend};

/// One registered backend: identity, description, and a trait-object
/// slot per dtype it supports (`None` = unsupported — a serve run that
/// would hit the missing dtype is rejected up front, before dispatch).
pub struct Registration {
    name: &'static str,
    description: &'static str,
    pub(crate) f32: Option<&'static dyn Backend<f32>>,
    pub(crate) f64: Option<&'static dyn Backend<f64>>,
}

impl Registration {
    /// A registration for `name` with the given per-dtype entry points.
    pub const fn new(
        name: &'static str,
        description: &'static str,
        f32: Option<&'static dyn Backend<f32>>,
        f64: Option<&'static dyn Backend<f64>>,
    ) -> Self {
        Self { name, description, f32, f64 }
    }

    /// The registry name (also the CLI spelling in `--backends`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description (shown by `laab list`-style surfaces).
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The backend's stable identity.
    pub fn id(&self) -> BackendId {
        BackendId::of(self.name)
    }

    /// Whether this backend can execute `dtype`.
    pub fn supports(&self, dtype: Dtype) -> bool {
        match dtype {
            Dtype::F32 => self.f32.is_some(),
            Dtype::F64 => self.f64.is_some(),
        }
    }

    /// The backend's entry point at precision `T`, when supported.
    pub fn resolve<T: BackendScalar>(&self) -> Option<&'static dyn Backend<T>> {
        T::slot(self)
    }
}

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration")
            .field("name", &self.name)
            .field("f32", &self.f32.is_some())
            .field("f64", &self.f64.is_some())
            .finish()
    }
}

static ENGINE_REG: Registration = Registration::new(
    "engine",
    "live laab-kernels engine (packed GEMM, FMA microkernels, worker pool) — default",
    Some(&EngineBackend),
    Some(&EngineBackend),
);

static REFERENCE_REG: Registration = Registration::new(
    "reference",
    "naive triple loops — the correctness oracle (use at oracle sizes)",
    Some(&ReferenceBackend),
    Some(&ReferenceBackend),
);

/// The always-present built-in backends, default first.
pub fn builtins() -> [&'static Registration; 2] {
    [&ENGINE_REG, &REFERENCE_REG]
}

/// The default backend (`engine`) — what every execution path uses when
/// no backend is named.
pub fn default_backend() -> &'static Registration {
    &ENGINE_REG
}

fn extras() -> &'static RwLock<Vec<&'static Registration>> {
    static EXTRAS: OnceLock<RwLock<Vec<&'static Registration>>> = OnceLock::new();
    EXTRAS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Why a [`register`] call was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A backend with this name already exists (built-in or registered).
    NameTaken(&'static str),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NameTaken(name) => {
                write!(f, "backend name `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Register an additional backend process-wide.
///
/// The registration must be `'static` (a `static` item, or leaked); names
/// are first-come-first-served and collisions with built-ins or earlier
/// registrations are rejected, so a [`BackendId`] resolves to one backend
/// for the life of the process — a plan cached under it can never switch
/// implementations.
pub fn register(reg: &'static Registration) -> Result<(), RegistryError> {
    let mut extras = extras().write().unwrap_or_else(|e| e.into_inner());
    let taken = builtins().iter().chain(extras.iter()).any(|r| r.name() == reg.name());
    if taken {
        return Err(RegistryError::NameTaken(reg.name()));
    }
    extras.push(reg);
    Ok(())
}

/// Look a backend up by registry name.
pub fn find(name: &str) -> Option<&'static Registration> {
    if let Some(b) = builtins().into_iter().find(|r| r.name() == name) {
        return Some(b);
    }
    let extras = extras().read().unwrap_or_else(|e| e.into_inner());
    extras.iter().copied().find(|r| r.name() == name)
}

/// Every registered backend, built-ins first, in registration order.
pub fn all() -> Vec<&'static Registration> {
    let extras = extras().read().unwrap_or_else(|e| e.into_inner());
    builtins().into_iter().chain(extras.iter().copied()).collect()
}

/// Every registered backend name (error messages, CLI help).
pub fn names() -> Vec<&'static str> {
    all().into_iter().map(Registration::name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_and_support_both_dtypes() {
        for name in ["engine", "reference"] {
            let reg = find(name).unwrap_or_else(|| panic!("builtin `{name}` missing"));
            assert_eq!(reg.name(), name);
            assert_eq!(reg.id(), BackendId::of(name));
            assert!(reg.supports(Dtype::F32) && reg.supports(Dtype::F64));
            assert!(reg.resolve::<f32>().is_some());
            let be = reg.resolve::<f64>().expect("f64 entry point");
            assert_eq!(be.id().name(), name);
            assert!(!reg.description().is_empty());
            assert!(format!("{reg:?}").contains(name));
        }
        assert!(find("no-such-backend").is_none());
        assert_eq!(default_backend().name(), "engine");
        assert!(names().starts_with(&["engine", "reference"]));
    }

    #[test]
    fn registering_a_custom_backend_extends_the_registry() {
        // An f32-only backend: delegates to the engine but declares no
        // f64 entry point — the shape of a future GPU-style stub.
        static F32_ONLY: Registration = Registration::new(
            "test-f32-only",
            "engine kernels, f32 slot only (registry test)",
            Some(&EngineBackend),
            None,
        );
        register(&F32_ONLY).expect("fresh name registers");
        let reg = find("test-f32-only").expect("registered backend resolves");
        assert!(reg.supports(Dtype::F32) && !reg.supports(Dtype::F64));
        assert!(reg.resolve::<f32>().is_some());
        assert!(reg.resolve::<f64>().is_none());
        assert!(all().iter().any(|r| r.name() == "test-f32-only"));

        // Names are first-come-first-served: re-registering the same
        // name, or shadowing a built-in, is refused.
        assert_eq!(register(&F32_ONLY), Err(RegistryError::NameTaken("test-f32-only")));
        static SHADOW: Registration =
            Registration::new("engine", "impostor", Some(&EngineBackend), Some(&EngineBackend));
        let err = register(&SHADOW).expect_err("built-in name is taken");
        assert!(err.to_string().contains("engine"));
    }
}
