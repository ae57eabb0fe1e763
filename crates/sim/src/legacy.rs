//! The legacy carrier: `Box<dyn Any>`.
//!
//! Components written against the type-erased API implement
//! `Component` (whose carrier defaults to `Box<dyn Any>`), receive boxed
//! payloads and downcast them. This module is the one place that
//! adapter lives:
//!
//! * `Box<dyn Any>` carries any `'static` value, boxing it (a value that
//!   already is a `Box<dyn Any>` is carried as is);
//! * a parked event is boxed once more inside a private wrapper;
//! * [`legacy_carrier!`](crate::legacy_carrier) implements a domain
//!   crate's carrier trait for `Box<dyn Any>`: `From<XMsg>` boxes the
//!   variant's own payload, so a type-erased component receives the
//!   same structs it always did, and `into_x` downcasts each payload
//!   type in turn.
//!
//! A typed carrier never reaches this code: its payloads sit inline in
//! the timing wheel and dispatch is a `match`.

use std::any::Any;

use crate::carrier::{Carrier, Carry};

impl<P: Any> Carry<P> for Box<dyn Any> {
    #[inline]
    fn carry(payload: P) -> Self {
        // A lower crate's message already converted with `From` is a
        // `Box<dyn Any>` itself; box it again and no receiver could
        // downcast it. The check folds away per monomorphization.
        let mut slot = Some(payload);
        // acc-lint: allow(R10, reason = "legacy carrier adapter: recognises an already-boxed payload so it is not boxed twice")
        if let Some(boxed) = (&mut slot as &mut dyn Any).downcast_mut::<Option<Box<dyn Any>>>() {
            return boxed.take().expect("legacy carrier: payload taken twice");
        }
        Box::new(slot.expect("legacy carrier: payload taken twice"))
    }
}

/// A parked legacy event (see [`Carrier::defer`]).
struct Parked(Box<dyn Any>);

impl Carrier for Box<dyn Any> {
    fn defer(self) -> Self {
        Box::new(Parked(self))
    }

    fn undefer(self) -> Result<Self, Self> {
        // acc-lint: allow(R10, reason = "legacy carrier adapter: unwraps the legacy carrier's own parking wrapper")
        self.downcast::<Parked>().map(|parked| parked.0)
    }
}

/// Implement a domain crate's carrier trait for the legacy
/// `Box<dyn Any>` carrier.
///
/// ```ignore
/// acc_sim::legacy_carrier!(NetCarrier::into_net for NetMsg {
///     inline { Arrival(FrameArrival), TxDone(PortTxDone) }
///     boxed { Routes(RouteUpdate) }
/// });
/// ```
///
/// Every variant of the message enum is a one-field tuple variant whose
/// payload type is unique within the enum; `inline` variants hold the
/// payload by value, `boxed` ones as `Box<payload>`. `From<XMsg>` boxes
/// the payload itself (a boxed variant's box is reused), and `into_x`
/// downcasts each payload type in turn, handing back `Err(self)` for a
/// payload of another crate.
#[macro_export]
macro_rules! legacy_carrier {
    ($carrier:ident :: $into:ident for $msg:ident {
        inline { $($variant:ident($payload:ty)),* $(,)? }
        boxed { $($bvariant:ident($bpayload:ty)),* $(,)? }
    }) => {
        impl ::std::convert::From<$msg> for ::std::boxed::Box<dyn ::std::any::Any> {
            fn from(msg: $msg) -> Self {
                match msg {
                    $($msg::$variant(p) => ::std::boxed::Box::new(p),)*
                    $($msg::$bvariant(p) => p,)*
                }
            }
        }

        impl $carrier for ::std::boxed::Box<dyn ::std::any::Any> {
            fn $into(self) -> ::std::result::Result<$msg, Self> {
                let ev = self;
                $(
                    // acc-lint: allow(R10, reason = "legacy carrier adapter: decodes a type-erased payload into its crate's message enum")
                    let ev = match ev.downcast::<$payload>() {
                        Ok(p) => return Ok($msg::$variant(*p)),
                        Err(ev) => ev,
                    };
                )*
                $(
                    // acc-lint: allow(R10, reason = "legacy carrier adapter: decodes a type-erased payload into its crate's message enum")
                    let ev = match ev.downcast::<$bpayload>() {
                        Ok(p) => return Ok($msg::$bvariant(p)),
                        Err(ev) => ev,
                    };
                )*
                Err(ev)
            }
        }
    };
}
