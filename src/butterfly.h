/// \file butterfly.h
/// \brief Umbrella header: the full public API of the Butterfly library.
///
/// Most applications only need StreamPrivacyEngine (mining + sanitization in
/// one pipeline); power users can compose the pieces directly.

#ifndef BUTTERFLY_BUTTERFLY_H_
#define BUTTERFLY_BUTTERFLY_H_

// Foundations.
#include "common/classification.h"
#include "common/flags.h"
#include "common/interval.h"
#include "common/itemset.h"
#include "common/pattern.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timing.h"
#include "common/transaction.h"
#include "common/types.h"

// Streams and data.
#include "datagen/drift.h"
#include "datagen/fimi_io.h"
#include "datagen/profiles.h"
#include "datagen/quest_generator.h"
#include "stream/sliding_window.h"

// Mining substrates.
#include "mining/closed.h"
#include "mining/eclat.h"
#include "mining/rules.h"
#include "mining/support.h"
#include "moment/moment.h"
#include "moment/recompute_miner.h"

// The adversary.
#include "inference/breach_finder.h"
#include "inference/freqsat.h"
#include "inference/inclusion_exclusion.h"
#include "inference/interval_tightening.h"
#include "inference/interwindow.h"
#include "inference/ndi.h"

// Butterfly itself.
#include "core/butterfly.h"
#include "core/config.h"
#include "core/noise.h"
#include "core/release_log.h"
#include "core/stream_engine.h"

// Evaluation.
#include "metrics/auditor.h"
#include "metrics/privacy_metrics.h"
#include "metrics/sanitized_attack.h"
#include "metrics/topk.h"
#include "metrics/utility_metrics.h"

#endif  // BUTTERFLY_BUTTERFLY_H_
