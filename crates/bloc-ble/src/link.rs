//! A minimal-but-real BLE connection state machine.
//!
//! BLoc's deployment (paper §3): "The BLE tag connects to one of these
//! anchor points (we call the connected anchor point the master) while the
//! other anchor points passively listen." This module models that exchange:
//! advertising → `CONNECT_IND` → connection events, each event hopping to a
//! new data channel and carrying a master packet and a slave (tag) response
//! — the two transmissions whose channels BLoc measures.

use crate::access_address::AccessAddress;
use crate::channels::{Channel, ChannelMap};
use crate::error::BleError;
use crate::hopping::{HopIncrement, HopSequence};
use crate::locpacket::LocalizationPacket;
use crate::packet::Frame;
use crate::pdu::{AdvPdu, AdvPduType, ConnectInd, DataPdu, DeviceAddress, Llid};
use rand::Rng;

/// Link-layer role of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Role {
    /// Connection initiator (BLoc's master anchor).
    Master,
    /// Advertiser that accepted the connection (the BLE tag).
    Slave,
}

/// Link-layer state (spec §4.5 state machine, the subset BLoc exercises).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LinkState {
    /// Not transmitting or receiving.
    Standby,
    /// Broadcasting ADV_IND on the advertising channels.
    Advertising,
    /// Listening for a specific advertiser to connect to.
    Initiating {
        /// The advertiser being pursued.
        peer: DeviceAddress,
    },
    /// In a connection.
    Connected {
        /// Our role in the connection.
        role: Role,
    },
}

/// A device's link layer.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LinkLayer {
    /// This device's address.
    pub address: DeviceAddress,
    /// Current state.
    pub state: LinkState,
}

impl LinkLayer {
    /// A device in standby.
    pub fn new(address: DeviceAddress) -> Self {
        Self {
            address,
            state: LinkState::Standby,
        }
    }

    /// Enters the advertising state (tag side).
    pub fn start_advertising(&mut self) -> Result<(), BleError> {
        match self.state {
            LinkState::Standby => {
                self.state = LinkState::Advertising;
                Ok(())
            }
            _ => Err(BleError::InvalidState("start_advertising")),
        }
    }

    /// Produces one ADV_IND PDU (valid only while advertising).
    pub fn advertise(&self) -> Result<AdvPdu, BleError> {
        match self.state {
            LinkState::Advertising => Ok(AdvPdu {
                pdu_type: AdvPduType::AdvInd,
                tx_add: false,
                rx_add: false,
                address: self.address,
                payload: vec![0x02, 0x01, 0x06], // Flags AD: LE General Discoverable
            }),
            _ => Err(BleError::InvalidState("advertise")),
        }
    }

    /// Enters the initiating state, pursuing `peer` (master-anchor side).
    pub fn start_initiating(&mut self, peer: DeviceAddress) -> Result<(), BleError> {
        match self.state {
            LinkState::Standby => {
                self.state = LinkState::Initiating { peer };
                Ok(())
            }
            _ => Err(BleError::InvalidState("start_initiating")),
        }
    }

    /// Initiator's reaction to an overheard ADV_IND: when it comes from the
    /// pursued peer, emit a `CONNECT_IND` and transition to Connected.
    /// Returns the connection handle and the CONNECT_IND PDU to transmit.
    pub fn on_adv_ind<R: Rng + ?Sized>(
        &mut self,
        adv: &AdvPdu,
        params: &ConnectionParams,
        rng: &mut R,
    ) -> Result<Option<(Connection, AdvPdu)>, BleError> {
        let LinkState::Initiating { peer } = self.state else {
            return Err(BleError::InvalidState("on_adv_ind"));
        };
        if adv.pdu_type != AdvPduType::AdvInd || adv.address != peer {
            return Ok(None); // not our peer; keep listening
        }
        let ll_data = ConnectInd {
            access_address: AccessAddress::generate(rng),
            crc_init: rng.gen::<u32>() & 0xFF_FFFF,
            win_size: 1,
            win_offset: 0,
            interval: params.interval_units,
            latency: 0,
            timeout: params.timeout_units,
            channel_map: params.channel_map,
            hop: params.hop,
            sca: 0,
        };
        let pdu = AdvPdu {
            pdu_type: AdvPduType::ConnectInd,
            tx_add: false,
            rx_add: false,
            address: self.address,
            payload: ll_data.encode(),
        };
        self.state = LinkState::Connected { role: Role::Master };
        let conn = Connection::new(ll_data, Role::Master)?;
        Ok(Some((conn, pdu)))
    }

    /// Advertiser's reaction to a received `CONNECT_IND`: accept and
    /// transition to Connected as slave.
    pub fn on_connect_ind(&mut self, pdu: &AdvPdu) -> Result<Connection, BleError> {
        if self.state != LinkState::Advertising {
            return Err(BleError::InvalidState("on_connect_ind"));
        }
        if pdu.pdu_type != AdvPduType::ConnectInd {
            return Err(BleError::UnknownPduType(pdu.pdu_type.code()));
        }
        let ll_data = ConnectInd::decode(&pdu.payload)?;
        self.state = LinkState::Connected { role: Role::Slave };
        Connection::new(ll_data, Role::Slave)
    }
}

/// Parameters the initiator chooses for a connection.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConnectionParams {
    /// Connection interval in 1.25 ms units (7.5 ms .. 4 s per spec).
    pub interval_units: u16,
    /// Supervision timeout in 10 ms units.
    pub timeout_units: u16,
    /// Channel map for adaptive hopping.
    pub channel_map: ChannelMap,
    /// Hop increment.
    pub hop: HopIncrement,
}

impl ConnectionParams {
    /// BLoc's defaults: 7.5 ms interval (fastest allowed — the paper notes
    /// BLE "hops through all channels 40 times every second", §6), full
    /// channel map, hop 5.
    pub fn bloc_default() -> Self {
        // Invariant, not input: 5 lies in the valid hop range 5..=16.
        #[allow(clippy::expect_used)]
        Self {
            interval_units: 6, // 7.5 ms
            timeout_units: 100,
            channel_map: ChannelMap::all(),
            hop: HopIncrement::new(5).expect("5 is a valid hop"),
        }
    }
}

/// One connection event: the channel and the two framed packets exchanged
/// on it (master → slave, then slave → master — the two transmissions
/// BLoc's anchors measure CSI from, paper §5.2).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ConnectionEvent {
    /// Event counter value (0-based).
    pub event: u64,
    /// Data channel used for the whole event.
    pub channel: Channel,
    /// Master's transmission.
    pub master_frame: Frame,
    /// Slave's (tag's) response.
    pub slave_frame: Frame,
}

/// An established connection (either party's view, or a follower's).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Connection {
    /// Link data from the CONNECT_IND.
    pub params: ConnectInd,
    /// Our role.
    pub role: Role,
    hop: HopSequence,
    sn: bool,
    nesn: bool,
}

impl Connection {
    fn new(params: ConnectInd, role: Role) -> Result<Self, BleError> {
        let hop = HopSequence::new(params.hop, params.channel_map, 0)?;
        Ok(Self {
            params,
            role,
            hop,
            sn: false,
            nesn: false,
        })
    }

    /// Runs one connection event in which the master sends `master_payload`
    /// and the slave responds with `slave_payload` (both plain L2CAP-style
    /// data). Sequence numbers advance as if both packets were acked.
    pub fn advance_event(
        &mut self,
        master_payload: Vec<u8>,
        slave_payload: Vec<u8>,
    ) -> Result<ConnectionEvent, BleError> {
        let channel = self.hop.next_channel();
        let event = self.hop.event_counter - 1;

        let master_pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: self.nesn,
            sn: self.sn,
            md: false,
            payload: master_payload,
        }
        .encode()?;
        let slave_pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: !self.sn, // acks the master's SN
            sn: self.nesn,
            md: false,
            payload: slave_payload,
        }
        .encode()?;

        // Both sides saw each other's packet: toggle for the next event.
        self.sn = !self.sn;
        self.nesn = !self.nesn;

        Ok(ConnectionEvent {
            event,
            channel,
            master_frame: Frame::new(self.params.access_address, master_pdu, self.params.crc_init),
            slave_frame: Frame::new(self.params.access_address, slave_pdu, self.params.crc_init),
        })
    }

    /// Runs one **localization** connection event: both directions carry
    /// BLoc run-pattern payloads pre-whitened for the event's channel
    /// (paper §4). Returns the event plus the two localization packets with
    /// their stable-window metadata.
    pub fn advance_localization_event(
        &mut self,
        run_bits: usize,
        pairs: usize,
    ) -> Result<(ConnectionEvent, LocalizationPacket, LocalizationPacket), BleError> {
        let channel = self.hop.next_channel();
        let event = self.hop.event_counter - 1;

        let master_lp = LocalizationPacket::build(
            channel,
            self.params.access_address,
            self.params.crc_init,
            run_bits,
            pairs,
        )?;
        let slave_lp = LocalizationPacket::build(
            channel,
            self.params.access_address,
            self.params.crc_init,
            run_bits,
            pairs,
        )?;

        self.sn = !self.sn;
        self.nesn = !self.nesn;

        Ok((
            ConnectionEvent {
                event,
                channel,
                master_frame: master_lp.frame.clone(),
                slave_frame: slave_lp.frame.clone(),
            },
            master_lp,
            slave_lp,
        ))
    }

    /// Applies a channel-map update mid-connection (interference
    /// avoidance, paper §8.6).
    pub fn update_channel_map(&mut self, map: ChannelMap) {
        self.hop.set_channel_map(map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    fn tag_addr() -> DeviceAddress {
        DeviceAddress::new([0xC0, 1, 2, 3, 4, 5])
    }

    fn anchor_addr() -> DeviceAddress {
        DeviceAddress::new([0xC0, 9, 8, 7, 6, 5])
    }

    /// Full establishment dance: tag advertises, master initiates.
    fn establish() -> (Connection, Connection) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tag = LinkLayer::new(tag_addr());
        let mut master = LinkLayer::new(anchor_addr());

        tag.start_advertising().unwrap();
        master.start_initiating(tag_addr()).unwrap();

        let adv = tag.advertise().unwrap();
        let (master_conn, connect_ind) = master
            .on_adv_ind(&adv, &ConnectionParams::bloc_default(), &mut rng)
            .unwrap()
            .unwrap();
        let tag_conn = tag.on_connect_ind(&connect_ind).unwrap();
        (master_conn, tag_conn)
    }

    #[test]
    fn establishment_reaches_connected() {
        let (m, t) = establish();
        assert_eq!(m.role, Role::Master);
        assert_eq!(t.role, Role::Slave);
        assert_eq!(m.params, t.params, "both sides must agree on link data");
    }

    #[test]
    fn both_sides_hop_identically() {
        let (mut m, mut t) = establish();
        for _ in 0..50 {
            let me = m.advance_event(vec![1], vec![2]).unwrap();
            let te = t.advance_event(vec![1], vec![2]).unwrap();
            assert_eq!(me.channel, te.channel);
            assert_eq!(me.event, te.event);
        }
    }

    #[test]
    fn hop_covers_all_channels_in_37_events() {
        let (mut m, _) = establish();
        let mut seen = HashSet::new();
        for _ in 0..37 {
            seen.insert(m.advance_event(vec![], vec![]).unwrap().channel.index());
        }
        assert_eq!(
            seen.len(),
            37,
            "one full cycle must visit every data channel"
        );
    }

    #[test]
    fn adv_from_wrong_peer_ignored() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut master = LinkLayer::new(anchor_addr());
        master.start_initiating(tag_addr()).unwrap();
        let stranger = AdvPdu {
            pdu_type: AdvPduType::AdvInd,
            tx_add: false,
            rx_add: false,
            address: DeviceAddress::new([9; 6]),
            payload: vec![],
        };
        let out = master
            .on_adv_ind(&stranger, &ConnectionParams::bloc_default(), &mut rng)
            .unwrap();
        assert!(out.is_none());
        assert!(matches!(master.state, LinkState::Initiating { .. }));
    }

    #[test]
    fn invalid_transitions_error() {
        let mut dev = LinkLayer::new(tag_addr());
        assert!(dev.advertise().is_err(), "standby device cannot advertise");
        dev.start_advertising().unwrap();
        assert!(dev.start_advertising().is_err(), "double start must fail");
        assert!(
            dev.start_initiating(anchor_addr()).is_err(),
            "advertiser cannot initiate"
        );
    }

    #[test]
    fn sequence_numbers_alternate() {
        let (mut m, _) = establish();
        let e0 = m.advance_event(vec![], vec![]).unwrap();
        let e1 = m.advance_event(vec![], vec![]).unwrap();
        let h0 = e0.master_frame.pdu[0];
        let h1 = e1.master_frame.pdu[0];
        assert_ne!(h0 & 0x08, h1 & 0x08, "SN must toggle between events");
    }

    #[test]
    fn localization_event_produces_clean_runs() {
        let (mut m, _) = establish();
        let (ev, mlp, slp) = m.advance_localization_event(8, 4).unwrap();
        assert_eq!(mlp.channel, ev.channel);
        assert_eq!(slp.channel, ev.channel);
        assert_eq!(mlp.stable_windows(2).len(), 8);
        // And the frames decode as standard BLE.
        let bits = ev.master_frame.encode_bits(ev.channel);
        assert!(Frame::decode_bits(&bits, ev.channel, m.params.crc_init).is_ok());
    }

    #[test]
    fn channel_map_update_respected() {
        let (mut m, _) = establish();
        let restricted = ChannelMap::subsampled(4, 0).unwrap();
        m.update_channel_map(restricted);
        for _ in 0..40 {
            let ev = m.advance_event(vec![], vec![]).unwrap();
            assert!(restricted.contains(ev.channel));
        }
    }
}
