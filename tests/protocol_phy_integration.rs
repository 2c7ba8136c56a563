//! Protocol ↔ PHY ↔ channel integration: the BLE link layer drives real
//! localization packets through the GFSK modulator, the propagation
//! simulator, and the CSI extractor — the §4 story executed across crates.

use bloc_ble::link::{ConnectionParams, LinkLayer};
use bloc_ble::pdu::DeviceAddress;
use bloc_chan::geometry::Room;
use bloc_chan::materials::Material;
use bloc_chan::sounder::{Fidelity, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, Environment};
use bloc_num::{C64, P2};
use bloc_phy::csi::measure_band_csi;
use bloc_phy::demodulator::{bit_errors, demodulate};
use bloc_phy::impairments;
use bloc_phy::modulator::{GfskModulator, ModulatorConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashSet;

/// Establish a tag↔master connection the way the link layer does it.
fn establish(rng: &mut StdRng) -> bloc_ble::link::Connection {
    let mut tag = LinkLayer::new(DeviceAddress::new([1, 2, 3, 4, 5, 6]));
    let mut master = LinkLayer::new(DeviceAddress::new([6, 5, 4, 3, 2, 1]));
    tag.start_advertising().unwrap();
    master.start_initiating(tag.address).unwrap();
    let adv = tag.advertise().unwrap();
    let (conn, ci) = master
        .on_adv_ind(&adv, &ConnectionParams::bloc_default(), rng)
        .unwrap()
        .expect("peer matches");
    tag.on_connect_ind(&ci).unwrap();
    conn
}

#[test]
fn localization_events_survive_the_air_interface() {
    // Link layer → frame bits → GFSK IQ → AWGN channel → demod →
    // frame decode: the whole transmit/receive chain, over a full hop
    // cycle so every data channel is exercised.
    let mut rng = StdRng::seed_from_u64(1);
    let mut conn = establish(&mut rng);
    let modem = GfskModulator::new(ModulatorConfig::default());

    let mut channels_seen = HashSet::new();
    for _ in 0..37 {
        let (ev, master_lp, _slave_lp) = conn.advance_localization_event(8, 4).unwrap();
        channels_seen.insert(ev.channel.index());

        let bits = master_lp.air_bits();
        let mut iq = modem.modulate(&bits);
        impairments::awgn(&mut iq, 20.0, &mut rng);
        let rx_bits = demodulate(&iq, 8);
        assert_eq!(bit_errors(&bits, &rx_bits), 0, "20 dB link must be clean");

        // A standard BLE receiver decodes the frame (CRC still intact).
        let frame =
            bloc_ble::packet::Frame::decode_bits(&rx_bits, ev.channel, conn.params.crc_init)
                .expect("frame must decode after the air interface");
        assert_eq!(frame, master_lp.frame);
    }
    assert_eq!(channels_seen.len(), 37, "one cycle hops all data channels");
}

#[test]
fn csi_extraction_recovers_channel_through_the_connection() {
    // The §4 measurement: h = y/x on the stable runs of a connection's
    // localization packet recovers an applied channel.
    let mut rng = StdRng::seed_from_u64(2);
    let mut conn = establish(&mut rng);
    let modem = GfskModulator::new(ModulatorConfig::default());

    let (_, lp, _) = conn.advance_localization_event(8, 8).unwrap();
    let h = C64::from_polar(0.04, -1.9);
    let mut rx = modem.modulate(&lp.air_bits());
    impairments::apply_channel_gain(&mut rx, h);
    impairments::awgn(&mut rx, 25.0, &mut rng);

    let csi = measure_band_csi(&lp, &rx, &modem, bloc_ble::locpacket::SETTLE_BITS)
        .expect("stable windows exist");
    let rel = (csi.combined() - h).abs() / h.abs();
    assert!(rel < 0.08, "CSI relative error {rel}");
}

#[test]
fn phy_and_analytic_sounding_agree_under_multipath() {
    // The sounder's two fidelity modes must agree on the measured channel
    // in a reflective environment (noiseless, ideal oscillators).
    let room = Room::new(5.0, 6.0);
    let mut rng = StdRng::seed_from_u64(3);
    let env = Environment::in_room(room)
        .with_walls(Material::concrete(), &mut rng)
        .unwrap();
    let anchors = vec![
        AnchorArray::centered(0, P2::new(2.5, 0.0), P2::new(1.0, 0.0), 2),
        AnchorArray::centered(1, P2::new(0.0, 3.0), P2::new(0.0, 1.0), 2),
    ];
    let tag = P2::new(2.2, 2.8);
    let channels: Vec<_> = bloc_chan::sounder::all_data_channels()[..5].to_vec();

    let base = SounderConfig {
        csi_snr_db: 300.0,
        antenna_phase_err_std: 0.0,
        ..Default::default()
    };
    let analytic = Sounder::new(
        &env,
        &anchors,
        SounderConfig {
            fidelity: Fidelity::Analytic,
            ..base
        },
    );
    let phy = Sounder::new(
        &env,
        &anchors,
        SounderConfig {
            fidelity: Fidelity::Phy { sps: 8 },
            ..base
        },
    );

    let mut rng_a = StdRng::seed_from_u64(4);
    let mut rng_p = StdRng::seed_from_u64(4);
    let da = analytic.sound_ideal(tag, &channels, &mut rng_a);
    let dp = phy.sound_ideal(tag, &channels, &mut rng_p);

    for (ba, bp) in da.bands.iter().zip(&dp.bands) {
        for i in 0..2 {
            for j in 0..2 {
                let a = ba.tag_to_anchor[i][j];
                let p = bp.tag_to_anchor[i][j];
                let rel = (a - p).abs() / a.abs().max(1e-12);
                assert!(
                    rel < 0.05,
                    "band {:.0} MHz anchor {i} ant {j}: analytic {a:?} vs phy {p:?} ({rel})",
                    ba.freq_hz / 1e6
                );
            }
        }
    }
}

#[test]
fn end_to_end_localization_through_the_phy_chain() {
    // Maximum-fidelity sanity check: localize using channels measured by
    // the actual GFSK IQ pipeline (few bands to keep runtime sane).
    let room = Room::new(5.0, 6.0);
    let mut rng = StdRng::seed_from_u64(5);
    let env = Environment::in_room(room)
        .with_walls(Material::concrete(), &mut rng)
        .unwrap();
    let anchors = bloc_testbed::scenario::standard_anchors(&room);
    let sounder = Sounder::new(
        &env,
        &anchors,
        SounderConfig {
            fidelity: Fidelity::Phy { sps: 8 },
            csi_snr_db: 25.0,
            antenna_phase_err_std: 0.0,
            ..Default::default()
        },
    );

    let tag = P2::new(2.8, 3.3);
    // Every 4th channel still spans the 80 MHz (the Fig. 11 insight keeps
    // the test fast without losing resolution).
    let channels: Vec<_> = bloc_chan::sounder::all_data_channels()
        .into_iter()
        .filter(|c| c.freq_index() % 4 == 0)
        .collect();
    let data = sounder.sound(tag, &channels, &mut rng);

    let localizer = bloc_core::BlocLocalizer::new(bloc_core::BlocConfig::for_room(&room));
    let est = localizer.localize(&data).expect("phy sounding localizes");
    assert!(
        est.position.dist(tag) < 1.0,
        "phy-chain localization error {} at {tag}",
        est.position.dist(tag)
    );
}

#[test]
fn cfo_is_transparent_to_bloc_but_fatal_to_tone_ranging() {
    // The asymmetry the whole baseline comparison rests on: tag CFO leaves
    // BLoc's corrected channels untouched (it cancels in Eq. 10) while the
    // intra-band tone difference is rotated by radians.
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = bloc_testbed::scenario::standard_anchors(&room);
    let tag = P2::new(2.0, 3.5);
    let channels = bloc_chan::sounder::all_data_channels();

    let sound_with_cfo = |cfo: f64, seed: u64| {
        let sounder = Sounder::new(
            &env,
            &anchors,
            SounderConfig {
                csi_snr_db: 300.0,
                antenna_phase_err_std: 0.0,
                tag_cfo_max_hz: cfo,
                tag_cfo_jitter_hz: 0.0,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        sounder.sound(tag, &channels, &mut rng)
    };

    let no_cfo = bloc_core::correction::correct(&sound_with_cfo(0.0, 6), true).unwrap();
    let with_cfo = bloc_core::correction::correct(&sound_with_cfo(20e3, 6), true).unwrap();

    // Corrected-channel phases agree band-by-band (CFO cancelled) up to
    // numerical noise. (Offsets differ per sounding; compare within-anchor
    // relative phases which are offset-free in both.)
    for (a, b) in no_cfo.bands.iter().zip(&with_cfo.bands) {
        let rel_a = (a.alpha[1][1] * a.alpha[1][0].conj()).arg();
        let rel_b = (b.alpha[1][1] * b.alpha[1][0].conj()).arg();
        assert!(
            (rel_a - rel_b).abs() < 1e-6,
            "CFO must cancel in corrected channels: {rel_a} vs {rel_b}"
        );
    }

    // …while the tone difference carries the full CFO rotation.
    let d0 = sound_with_cfo(0.0, 7);
    let dc = sound_with_cfo(20e3, 7);
    let tone_phase = |d: &bloc_chan::sounder::SoundingData| {
        let t = &d.bands[0].tag_to_anchor_tones[1][0];
        (t[1] * t[0].conj()).arg()
    };
    // The drawn CFO is uniform in ±20 kHz; whatever its value, the
    // rotation must be radians-scale (≫ the ~0.05 rad the true tone-pair
    // delay signal amounts to) and bounded by the configured maximum.
    let max_extra = std::f64::consts::TAU * 20e3 * bloc_chan::sounder::TONE_INTERVAL_S;
    let observed = (tone_phase(&dc) - tone_phase(&d0)).abs();
    assert!(
        observed > 0.3 && observed <= max_extra + 1e-6,
        "tone-pair rotation {observed} should be radians-scale (≤ {max_extra})"
    );
}

#[test]
fn anchor_finds_packets_in_a_raw_sample_stream() {
    // The sync module locates a localization packet in a noisy stream and
    // the CSI extractor then runs on the synced slice — the receive path
    // of a real (non-sample-aligned) anchor.
    use bloc_phy::sync::detect_packet;

    let mut rng = StdRng::seed_from_u64(18);
    let aa = bloc_ble::access_address::AccessAddress::generate(&mut rng);
    let channel = bloc_ble::channels::Channel::data(12).unwrap();
    let packet =
        bloc_ble::locpacket::LocalizationPacket::build(channel, aa, 0x00AB12, 8, 6).unwrap();
    let modem = GfskModulator::new(ModulatorConfig::default());

    let h = C64::from_polar(0.05, 0.7);
    let mut burst = modem.modulate(&packet.air_bits());
    impairments::apply_channel_gain(&mut burst, h);

    // Bury the burst in a longer noisy capture.
    let offset = 450;
    let mut stream: Vec<C64> = (0..offset + burst.len() + 200)
        .map(|k| C64::cis(k as f64 * 0.013) * 1e-4)
        .collect();
    for (k, z) in burst.iter().enumerate() {
        stream[offset + k] += *z;
    }
    impairments::awgn(&mut stream, 30.0, &mut rng);

    let det = detect_packet(&stream, aa, &modem, 0.6).expect("packet present");
    assert_eq!(det.offset, offset);

    let synced = &stream[det.offset..det.offset + burst.len()];
    let csi = measure_band_csi(&packet, synced, &modem, bloc_ble::locpacket::SETTLE_BITS)
        .expect("CSI from synced slice");
    let rel = (csi.combined() - h).abs() / h.abs();
    assert!(rel < 0.15, "synced CSI relative error {rel}");
}
