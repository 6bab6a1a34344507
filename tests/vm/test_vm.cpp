#include "vm/vm.h"

#include <gtest/gtest.h>

#include <memory>

#include "server/server.h"

namespace eclb::vm {
namespace {

using common::AppId;
using common::VmId;

TEST(Vm, ConstructionStoresFields) {
  const Vm v(VmId{1}, AppId{2}, 0.25);
  EXPECT_EQ(v.id(), VmId{1});
  EXPECT_EQ(v.app(), AppId{2});
  EXPECT_DOUBLE_EQ(v.demand(), 0.25);
  EXPECT_DOUBLE_EQ(v.served(), 0.25);
}

TEST(Vm, DemandClampedToUnitInterval) {
  const Vm high(VmId{1}, AppId{1}, 1.5);
  EXPECT_DOUBLE_EQ(high.demand(), 1.0);
  const Vm low(VmId{2}, AppId{1}, -0.5);
  EXPECT_DOUBLE_EQ(low.demand(), 0.0);
}

TEST(Vm, SetDemandClamps) {
  Vm v(VmId{1}, AppId{1}, 0.3);
  v.set_demand(0.7);
  EXPECT_DOUBLE_EQ(v.demand(), 0.7);
  v.set_demand(2.0);
  EXPECT_DOUBLE_EQ(v.demand(), 1.0);
}

TEST(Vm, ShrinkingDemandCapsServed) {
  Vm v(VmId{1}, AppId{1}, 0.8);
  v.set_served(0.8);
  v.set_demand(0.5);
  EXPECT_LE(v.served(), v.demand());
}

TEST(Vm, SetServedWithinDemand) {
  Vm v(VmId{1}, AppId{1}, 0.6);
  v.set_served(0.4);
  EXPECT_DOUBLE_EQ(v.served(), 0.4);
}

TEST(VmDeathTest, ServedAboveDemandAborts) {
  Vm v(VmId{1}, AppId{1}, 0.5);
  EXPECT_DEATH(v.set_served(0.9), "served must be in");
}

TEST(Vm, DefaultSpecIsSane) {
  const Vm v(VmId{1}, AppId{1}, 0.1);
  EXPECT_GT(v.spec().image_size.value, 0.0);
  EXPECT_GT(v.spec().ram.value, 0.0);
  EXPECT_GT(v.spec().dirty_rate.value, 0.0);
}

TEST(Vm, CustomSpecStored) {
  VmSpec spec;
  spec.image_size = common::MiB{8192.0};
  spec.ram = common::MiB{4096.0};
  spec.dirty_rate = common::MiBps{100.0};
  const Vm v(VmId{3}, AppId{4}, 0.2, spec);
  EXPECT_DOUBLE_EQ(v.spec().image_size.value, 8192.0);
  EXPECT_DOUBLE_EQ(v.spec().ram.value, 4096.0);
  EXPECT_DOUBLE_EQ(v.spec().dirty_rate.value, 100.0);
}

// The VM carries its growth rate inline; it must stay one cache line.
static_assert(sizeof(Vm) <= 64);

TEST(Vm, KeepsItsRateAcrossAMove) {
  // A migration moves the record itself (remove, then place on the
  // target), so lambda_{i,k} travels with the VM.
  server::ServerConfig cfg;
  cfg.power_model =
      std::make_shared<energy::LinearPowerModel>(common::Watts{200.0}, 0.5);
  server::Server source(common::ServerId{0}, cfg);
  server::Server target(common::ServerId{1}, cfg);
  source.force_place(Vm(VmId{7}, AppId{3}, 0.2, {}, 0.042));
  auto moved = source.remove(VmId{7});
  ASSERT_TRUE(moved.has_value());
  target.force_place(std::move(*moved));
  const Vm* v = target.find(VmId{7});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->lambda(), 0.042);
  EXPECT_EQ(v->app(), AppId{3});
}

TEST(Vm, DefaultRateIsTheGrowthSpecDefault) {
  const Vm v(VmId{1}, AppId{1}, 0.1);
  EXPECT_EQ(v.lambda(), DemandGrowthSpec{}.lambda);
}

}  // namespace
}  // namespace eclb::vm
