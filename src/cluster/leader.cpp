#include "cluster/leader.h"

namespace eclb::cluster {

energy::CState Leader::choose_sleep_state(double cluster_load_fraction,
                                          double threshold) {
  return cluster_load_fraction > threshold ? energy::CState::kC3
                                           : energy::CState::kC6;
}

}  // namespace eclb::cluster
