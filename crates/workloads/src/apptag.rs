//! The message-tag namespace shared by the closed-loop application models.
//!
//! A transport [`transport::Message`] carries one opaque `u64` tag. The
//! storage and training clusters both encode a message *type* in its top
//! bits, and both run over the same transport host stacks, which hand
//! every completed message to whichever hook is attached — so without a
//! discriminator, a storage message delivered to a stack running the
//! training model would be decoded as a training message (or vice
//! versa). Bits 60..64 therefore carry an application id; every
//! [`transport::AppHook`] implementation filters on its own id first and
//! ignores everything else.
//!
//! Layout: `| app: 4 bits | type: 4 bits | payload: 56 bits |`.

/// Bit position of the application-id field.
pub const APP_SHIFT: u64 = 60;
/// Bit position of the message-type field.
pub const TY_SHIFT: u64 = 56;

/// Application id of the distributed-storage cluster.
pub const APP_STORAGE: u64 = 1;
/// Application id of the parameter-server training cluster.
pub const APP_TRAINING: u64 = 2;

/// Compose a tag. `ty` must fit in 4 bits, `payload` in 56.
#[inline]
pub fn tag(app: u64, ty: u64, payload: u64) -> u64 {
    debug_assert!(app < 16 && ty < 16 && payload < (1 << TY_SHIFT));
    (app << APP_SHIFT) | (ty << TY_SHIFT) | payload
}

/// The application id of a tag.
#[inline]
pub fn app(t: u64) -> u64 {
    t >> APP_SHIFT
}

/// The message type of a tag.
#[inline]
pub fn ty(t: u64) -> u64 {
    (t >> TY_SHIFT) & 0xF
}

/// The payload (IO id, worker index...) of a tag.
#[inline]
pub fn payload(t: u64) -> u64 {
    t & ((1 << TY_SHIFT) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_do_not_alias() {
        let t = tag(APP_STORAGE, 6, (1 << 56) - 1);
        assert_eq!(app(t), APP_STORAGE);
        assert_eq!(ty(t), 6);
        assert_eq!(payload(t), (1 << 56) - 1);
        // The same type under a different app id is a different tag.
        assert_ne!(tag(APP_STORAGE, 1, 9), tag(APP_TRAINING, 1, 9));
        // Untagged (0) traffic belongs to no app.
        assert_eq!(app(0), 0);
    }
}
